# Runs the command given after "--" and passes only when it exits with
# status 0 and its standard output, without the lines that carry host
# wall-clock (those starting with "measured" or containing "wall"),
# equals the file EXPECTED:
#
#   cmake -DEXPECTED=<file> -P expect_output.cmake -- <command> [args...]
cmake_policy(SET CMP0007 NEW)  # keep blank lines when splitting into lists
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
                OUTPUT_VARIABLE output ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "expected exit status 0, got ${status}:\n${errors}")
endif()

# Prefixing a newline lets one pattern drop a whole line, the first
# one included, together with the newline that precedes it.
set(output "\n${output}")
string(REGEX REPLACE "\nmeasured[^\n]*" "" output "${output}")
string(REGEX REPLACE "\n[^\n]*wall[^\n]*" "" output "${output}")
string(SUBSTRING "${output}" 1 -1 output)

file(READ "${EXPECTED}" expected)
if(NOT output STREQUAL expected)
  string(REPLACE "\n" ";" expected_lines "${expected}")
  string(REPLACE "\n" ";" output_lines "${output}")
  list(LENGTH expected_lines expected_count)
  list(LENGTH output_lines output_count)
  set(report "")
  set(n ${expected_count})
  if(output_count GREATER n)
    set(n ${output_count})
  endif()
  math(EXPR n "${n} - 1")
  foreach(i RANGE ${n})
    set(want "")
    set(got "")
    if(i LESS expected_count)
      list(GET expected_lines ${i} want)
    endif()
    if(i LESS output_count)
      list(GET output_lines ${i} got)
    endif()
    if(NOT want STREQUAL got)
      math(EXPR line "${i} + 1")
      string(APPEND report "line ${line}:\n  expected: ${want}\n  actual:   ${got}\n")
    endif()
  endforeach()
  message(FATAL_ERROR "output differs from ${EXPECTED}:\n${report}")
endif()
