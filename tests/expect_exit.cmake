# Runs the command after "--" and passes only if it exits with status
# EXPECT_EXIT:
#
#   cmake -DEXPECT_EXIT=2 -P expect_exit.cmake -- <program> <args>...
cmake_minimum_required(VERSION 3.16)

set(command)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_EXIT}\n${err}")
endif()
message(STATUS "exit status ${status}: ${err}")
