# Runs the command given after "--" and passes only when it exits with
# status STATUS (default 1) and its standard error contains EXPECT:
#
#   cmake -DEXPECT=<text> [-DSTATUS=<n>] -P expect_error.cmake -- <command> [args...]
if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE errors)
if(NOT status EQUAL STATUS)
  message(FATAL_ERROR "expected exit status ${STATUS}, got ${status}:\n${errors}")
endif()
string(FIND "${errors}" "${EXPECT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${EXPECT}\":\n${errors}")
endif()
