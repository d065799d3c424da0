# Runs the command after "--" and passes only if it exits with status
# EXPECT_EXIT:
#
#   cmake -DEXPECT_EXIT=2 -P expect_exit.cmake -- <program> <args>...
#
# With -DGOLDEN=G it also passes only if the command's stdout equals the
# file G byte for byte.  With -DDOCUMENT=D as well, G is compared with the
# JSON document D the command writes instead of its stdout, minus D's
# "timing" member: wall-clock data, different on every run.  With
# -DWRITTEN=W instead, G holds the SHA-256 of the file W the command
# writes (one hex line), which keeps large outputs out of the tree.  On a
# mismatch the actual bytes (W itself in the last mode) land in
# <name of G>.actual in the working directory.
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

if(DEFINED DOCUMENT)
  file(REMOVE "${DOCUMENT}")
endif()
if(DEFINED WRITTEN)
  file(REMOVE "${WRITTEN}")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_EXIT}\n${err}")
endif()
message(STATUS "exit status ${status}: ${err}")
if(NOT DEFINED GOLDEN)
  return()
endif()

get_filename_component(name "${GOLDEN}" NAME)
if(DEFINED WRITTEN)
  if(NOT EXISTS "${WRITTEN}")
    message(FATAL_ERROR "the command wrote no ${WRITTEN}")
  endif()
  file(SHA256 "${WRITTEN}" actual)
  file(STRINGS "${GOLDEN}" expected LIMIT_COUNT 1)
  if(NOT actual STREQUAL expected)
    configure_file("${WRITTEN}" "${name}.actual" COPYONLY)
    message(FATAL_ERROR "${WRITTEN} has SHA-256 ${actual}, ${GOLDEN} says "
                        "${expected}; actual file in ${name}.actual")
  endif()
  return()
endif()

if(DEFINED DOCUMENT)
  file(READ "${DOCUMENT}" document)
  # "timing" holds objects nested two deep ({"histograms": {name: {...}}});
  # no key or string inside it contains a brace.
  set(flat "\\{[^{}]*\\}")
  set(nested "\\{([^{}]|${flat})*\\}")
  string(REGEX REPLACE ",\"timing\":\\{([^{}]|${nested})*\\}" ""
         out "${document}")
  if(out STREQUAL document)
    message(FATAL_ERROR "${DOCUMENT} has no \"timing\" member")
  endif()
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  file(WRITE "${name}.actual" "${out}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; "
                      "actual output in ${name}.actual")
endif()
