# ctest script: runs BIN with an argument it does not know (--help) in an
# empty directory DIR. Passes only if BIN exits with a non-zero status of
# its own (a crash or a timeout does not count) and writes no BENCH_*.json
# there, so an unknown flag can never overwrite a committed artefact.
#
#   cmake -DBIN=<binary> -DDIR=<scratch dir> -P reject_unknown_flag.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BIN}" --help
                WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET
                TIMEOUT 60)
file(GLOB written "${DIR}/BENCH_*.json")
file(REMOVE_RECURSE "${DIR}")
if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --help: expected a non-zero exit, got '${rc}'")
endif()
if(written)
  message(FATAL_ERROR "${BIN} --help wrote ${written}")
endif()
