# check.cmake — run one bench and diff its stdout against its golden file.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<bench/golden/x.txt> -DACTUAL=<out file>
#         [-DUPDATE=ON] -P bench/golden/check.cmake
#
# The bench's environment (duration scale, c5 node cap) is set by the
# caller (CMakeLists.txt wraps this in `cmake -E env`). With UPDATE=ON
# the golden file is rewritten instead of compared. stderr (wall-clock
# numbers) is never compared.
foreach(v BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "check.cmake: -D${v}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${BENCH}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}\n${err}")
endif()

if(UPDATE)
  file(WRITE ${GOLDEN} "${out}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(WRITE ${ACTUAL} "${out}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}\n"
                      "actual output: ${ACTUAL}\n"
                      "diff -u ${GOLDEN} ${ACTUAL}")
endif()
