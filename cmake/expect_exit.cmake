# Runs a binary with one command line and requires the wanted exit status
# and, when WANT_STDERR / WANT_STDOUT is not empty, stderr / stdout
# matching that pattern.
#   cmake -DBIN=<path> "-DARGS=<arg;arg...>" -DWANT_EXIT=<code>
#         "-DWANT_STDERR=<regex>" ["-DWANT_STDOUT=<regex>"]
#         -P expect_exit.cmake
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
if(NOT "${WANT_STDOUT}" STREQUAL "" AND NOT out MATCHES "${WANT_STDOUT}")
  message(FATAL_ERROR "${BIN} '${ARGS}': no '${WANT_STDOUT}' output\n${out}")
endif()
