# Runs a bench binary with one malformed command line and requires a clean
# rejection: exit status 2 and a `usage error:` line on stderr.
#   cmake -DBIN=<path> -DARGS="<arg;arg...>" -P expect_usage_error.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} '${ARGS}': exit '${rc}', want 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage error:")
  message(FATAL_ERROR "${BIN} '${ARGS}': no 'usage error:' line\n${err}")
endif()
