# Runs one paper report and compares its standard output byte for byte
# with the recorded golden in this directory:
#
#   cmake -DREPORT=<report binary> -DGOLDEN=<golden .txt> -P check_golden.cmake
#
# The reports print modeled results only (simulated cycles, scores, the
# area and CPU models), so any difference is a change to a paper table or
# figure. On a mismatch the actual output is written to <name>.actual in
# the working directory; diff it against the golden to see what moved.
# Re-record a golden only with a change that means to move the result.
if(NOT REPORT OR NOT GOLDEN)
  message(FATAL_ERROR
          "usage: cmake -DREPORT=<bin> -DGOLDEN=<txt> -P check_golden.cmake")
endif()
execute_process(COMMAND "${REPORT}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${REPORT} failed: ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR
          "${name}: output differs from ${GOLDEN}; see ${name}.actual")
endif()
