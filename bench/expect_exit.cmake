# Run a command and fail unless it exits with exactly the wanted status.
#
#   cmake -DWANT=<status> "-DCMD=<exe>;<arg>;..." -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE got)
if(NOT got STREQUAL "${WANT}")
  message(FATAL_ERROR "'${CMD}' exited with '${got}', want ${WANT}")
endif()
