# Runs predict_cli predict with --save-history but without --verify, and
# requires exit status 2, an InvalidArgument line, and no history file.
# Usage:
#   cmake -DCLI=<path to predict_cli> -DOUT=<history path> -P cli_save_history.cmake
file(REMOVE ${OUT})
execute_process(
  COMMAND ${CLI} predict --algorithm pagerank --dataset wiki --scale 0.02
          --save-history ${OUT}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "InvalidArgument: --save-history needs --verify")
  message(FATAL_ERROR "expected an InvalidArgument line, got:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no output before the error, got:\n${out}")
endif()
if(EXISTS ${OUT})
  message(FATAL_ERROR "expected no history file at ${OUT}")
endif()
