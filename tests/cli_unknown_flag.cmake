# Runs predict_cli with a misspelt flag and requires exit status 2 and an
# InvalidArgument line naming the flag. Usage:
#   cmake -DCLI=<path to predict_cli> -P cli_unknown_flag.cmake
execute_process(
  COMMAND ${CLI} run --algorithm pagerank --dataset wiki --scale 0.02
          --wrkers 3
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "InvalidArgument: run has no flag --wrkers")
  message(FATAL_ERROR "expected an InvalidArgument line, got:\n${err}")
endif()
