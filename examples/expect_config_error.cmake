# Runs flexsim with one config override and requires a clean config
# rejection: exit status 2 and a `config error:` line on stderr.
#   cmake -DFLEXSIM=<path> -DARG="<key = value>" -P expect_config_error.cmake
execute_process(COMMAND ${FLEXSIM} ${ARG}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "flexsim '${ARG}': exit '${rc}', want 2\n${out}${err}")
endif()
if(NOT err MATCHES "config error:")
  message(FATAL_ERROR "flexsim '${ARG}': no 'config error:' line\n${err}")
endif()
