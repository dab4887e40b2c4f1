# Passes only if a command line exits with status 2, not by a signal, and
# its stderr matches the regular expression EXPECT:
#
#   cmake -DEXPECT=<regex> -P expect_usage_error.cmake -- <program> [args...]
#
# CTest's PASS_REGULAR_EXPRESSION ignores the exit status, and WILL_FAIL
# also passes a crash.
set(command)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(DEFINED command_follows)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(command_follows ON)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
# A signal leaves a description such as "Subprocess aborted", never "2".
if(NOT status STREQUAL "2" OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit status '${status}', want 2 and stderr matching "
                      "'${EXPECT}':\n${out}${err}")
endif()
message(STATUS "exit status 2: ${err}")
