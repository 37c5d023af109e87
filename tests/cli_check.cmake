# Runs one alfi command line for the cli.* ctest cases (see
# alfi_cli_test in CMakeLists.txt).  Inputs: ALFI (binary), ARGS
# ('|'-separated arguments), RC (expected exit code), REGEX (must match
# stdout+stderr) and WORKDIR (recreated empty; must stay empty, so a
# rejected or help-only invocation provably did no work).
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${ALFI}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "exit code ${rc}, expected ${RC}; output:\n${out}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}")
endif()
file(GLOB leftovers "${WORKDIR}/*")
if(leftovers)
  message(FATAL_ERROR "command wrote into its working directory: ${leftovers}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
