# CTest helper: run a command, then check its exit code and output.
#
#   cmake -DCOMMAND=prog|arg|... -DEXPECT_EXIT=N
#         [-DEXPECT_STDERR=regex] [-DEXPECT_EMPTY_STDOUT=ON]
#         -P ExpectExit.cmake
#
# COMMAND separates its arguments with '|' (a ';' would be split by
# add_test before it reaches this script).
string(REPLACE "|" ";" cmd "${COMMAND}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit '${rc}', want ${EXPECT_EXIT}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
if(EXPECT_EMPTY_STDOUT AND NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got:\n${out}")
endif()
