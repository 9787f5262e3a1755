# Passes only when a command exits 2 with stderr matching EXPECT: the
# contract of a tool's usage error.
#
#   cmake -DEXPECT=<regex> -P expect_usage_error.cmake -- <command> [args...]
#
# The command is killed after 20 s, so one that ignores a bad flag and runs
# on fails instead of hanging.
set(cmd "")
set(take FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(take)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(take TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err TIMEOUT 20)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "want exit 2 and stderr matching '${EXPECT}', got exit '${rc}': "
          "${err}")
endif()
