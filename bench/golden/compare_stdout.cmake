# Runs PROGRAM in its smoke shape (WEBWAVE_SMOKE=1) and compares its
# stdout with the golden file GOLDEN byte for byte.  On a difference it
# writes the output to ACTUAL, prints `diff -u GOLDEN ACTUAL` and fails.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
#
# To update a golden file after a declared behaviour change, run the
# program the same way and commit its stdout; the file's diff is then the
# list of results that moved.
cmake_minimum_required(VERSION 3.20)

execute_process(COMMAND ${CMAKE_COMMAND} -E env WEBWAVE_SMOKE=1 ${PROGRAM}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT "${actual}" STREQUAL "${golden}")
  file(WRITE ${ACTUAL} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL} OUTPUT_VARIABLE delta)
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}:\n${delta}")
endif()
