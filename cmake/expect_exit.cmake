# Runs a binary with one command line and requires the wanted exit status
# and, when WANT_STDERR is not empty, a stderr line matching that pattern.
#   cmake -DBIN=<path> "-DARGS=<arg;arg...>" -DWANT_EXIT=<code>
#         "-DWANT_STDERR=<regex>" -P expect_exit.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${WANT_EXIT}")
  message(FATAL_ERROR
          "${BIN} '${ARGS}': exit '${rc}', want ${WANT_EXIT}\n${out}${err}")
endif()
if(NOT WANT_STDERR STREQUAL "" AND NOT err MATCHES "${WANT_STDERR}")
  message(FATAL_ERROR "${BIN} '${ARGS}': no '${WANT_STDERR}' line\n${err}")
endif()
