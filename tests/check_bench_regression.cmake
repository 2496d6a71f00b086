# Throughput-regression check between a committed benchmark trajectory and a
# freshly-run smoke grid of the same cells.  Fails ctest (and all five CI
# jobs) when any matched cell's *relative* throughput fell more than
# TOLERANCE_PCT below the committed trajectory.
#
# Comparison is shape-based, not absolute: each file's matched rows are
# normalized by the file's own anchor row (the first matched record), so a
# uniformly slower CI machine passes while one cell regressing against its
# neighbours — the signature of a real code regression, e.g. a batching path
# losing its grouping — fails.  Rows are matched by record name AND equal
# threads_effective, so a row that ran at different effective parallelism is
# never compared.
#
# Inputs (via -D):
#   COMMITTED_JSON  the committed trajectory (e.g. BENCH_store.json)
#   FRESH_JSON      the just-run smoke output (a FIXTURES_SETUP test wrote it)
#   FIELD           record member holding the metric under test
#   TOLERANCE_PCT   allowed relative drift, in percent (e.g. 30)
#
# Optional inputs (via -D):
#   MATCH_THREADS      default ON.  OFF matches rows by name alone — for
#                      grids whose committed rows come from a machine with a
#                      different core count than CI (e.g. BENCH_net rows
#                      carry threads_effective = cores actually used, so a
#                      1-core-committed row would never thread-match a
#                      multi-core CI run).  Shape normalization still
#                      absorbs the absolute speed difference.
#   DIRECTION          default "higher" (bigger FIELD = better, regression =
#                      relative drop).  "lower" flips it for latency-style
#                      fields: regression = fresh shape rising more than
#                      TOLERANCE_PCT above the committed shape.
#   SKIP_IF_UNMATCHED  default OFF.  ON turns the <2-matches FATAL into a
#                      "check_bench_regression: skipped:" STATUS line and a
#                      zero exit — for checks that only apply when the
#                      fresh grid overlaps the committed one (e.g. a
#                      threads-matched latency check that legitimately has
#                      nothing to compare on a machine class the committed
#                      file has never seen).
#
# CMake math() is integer-only, so decimal field values are parsed into
# micro-unit integers; ratios are then exact integer arithmetic.
cmake_minimum_required(VERSION 3.19)

foreach(var COMMITTED_JSON FRESH_JSON FIELD TOLERANCE_PCT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_regression: ${var} must be passed -D")
  endif()
endforeach()
if(NOT DEFINED MATCH_THREADS)
  set(MATCH_THREADS ON)
endif()
if(NOT DEFINED DIRECTION)
  set(DIRECTION "higher")
endif()
if(NOT DEFINED SKIP_IF_UNMATCHED)
  set(SKIP_IF_UNMATCHED OFF)
endif()
if(NOT DIRECTION STREQUAL "higher" AND NOT DIRECTION STREQUAL "lower")
  message(FATAL_ERROR "check_bench_regression: DIRECTION must be 'higher' "
                      "or 'lower', got '${DIRECTION}'")
endif()
foreach(path "${COMMITTED_JSON}" "${FRESH_JSON}")
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "check_bench_regression: missing ${path}")
  endif()
endforeach()

# Decimal string -> micro-units integer ("3.57916" -> 3579160).  The bench
# writer emits %.6g, which stays in plain decimal for every throughput this
# check reads; scientific notation is rejected loudly rather than misread.
function(parse_micros str context out)
  if("${str}" MATCHES "[eE]")
    message(FATAL_ERROR "check_bench_regression: ${context}: scientific "
                        "notation '${str}' is not supported")
  endif()
  if("${str}" MATCHES "^([0-9]+)\\.([0-9]+)$")
    set(int_part "${CMAKE_MATCH_1}")
    set(frac "${CMAKE_MATCH_2}")
  elseif("${str}" MATCHES "^([0-9]+)$")
    set(int_part "${CMAKE_MATCH_1}")
    set(frac "")
  else()
    message(FATAL_ERROR "check_bench_regression: ${context}: cannot parse "
                        "'${str}' as a non-negative decimal")
  endif()
  string(SUBSTRING "${frac}000000" 0 6 frac)
  # Strip leading zeros so math() does not read the operand as octal.
  string(REGEX REPLACE "^0+" "" int_part "${int_part}")
  string(REGEX REPLACE "^0+" "" frac "${frac}")
  if(int_part STREQUAL "")
    set(int_part 0)
  endif()
  if(frac STREQUAL "")
    set(frac 0)
  endif()
  math(EXPR result "${int_part} * 1000000 + ${frac}")
  set(${out} "${result}" PARENT_SCOPE)
endfunction()

file(READ "${COMMITTED_JSON}" committed)
file(READ "${FRESH_JSON}" fresh)

foreach(file_var committed fresh)
  string(JSON ${file_var}_count ERROR_VARIABLE json_error
         LENGTH "${${file_var}}" records)
  if(json_error)
    message(FATAL_ERROR "check_bench_regression: no 'records' array in the "
                        "${file_var} file: ${json_error}")
  endif()
endforeach()

# Collect the matched rows: same name in both files, and (unless
# MATCH_THREADS is OFF) same threads_effective.
set(matched_names "")
math(EXPR fresh_last "${fresh_count} - 1")
math(EXPR committed_last "${committed_count} - 1")
foreach(i RANGE ${fresh_last})
  string(JSON name GET "${fresh}" records ${i} name)
  if(MATCH_THREADS)
    string(JSON fresh_threads ERROR_VARIABLE json_error
           GET "${fresh}" records ${i} threads_effective)
    if(json_error)
      message(FATAL_ERROR "check_bench_regression: fresh record '${name}' "
                          "lacks threads_effective")
    endif()
  endif()
  foreach(j RANGE ${committed_last})
    string(JSON committed_name GET "${committed}" records ${j} name)
    if(NOT committed_name STREQUAL name)
      continue()
    endif()
    if(MATCH_THREADS)
      string(JSON committed_threads ERROR_VARIABLE json_error
             GET "${committed}" records ${j} threads_effective)
      if(json_error OR NOT committed_threads EQUAL fresh_threads)
        continue()
      endif()
    endif()
    string(JSON fresh_value GET "${fresh}" records ${i} ${FIELD})
    string(JSON committed_value ERROR_VARIABLE json_error
           GET "${committed}" records ${j} ${FIELD})
    if(json_error)
      message(FATAL_ERROR "check_bench_regression: committed record "
                          "'${name}' lacks field '${FIELD}'")
    endif()
    parse_micros("${fresh_value}" "fresh '${name}'" fresh_micros)
    parse_micros("${committed_value}" "committed '${name}'" committed_micros)
    if(fresh_micros EQUAL 0 OR committed_micros EQUAL 0)
      message(FATAL_ERROR "check_bench_regression: '${name}' reports zero "
                          "${FIELD} (fresh ${fresh_value}, committed "
                          "${committed_value})")
    endif()
    list(APPEND matched_names "${name}")
    set(fresh_of_${name} "${fresh_micros}")
    set(committed_of_${name} "${committed_micros}")
  endforeach()
endforeach()

list(LENGTH matched_names num_matched)
if(num_matched LESS 2)
  if(SKIP_IF_UNMATCHED)
    message(STATUS
            "check_bench_regression: skipped: only ${num_matched} "
            "record(s) of ${FRESH_JSON} match ${COMMITTED_JSON}; "
            "SKIP_IF_UNMATCHED is set, so nothing was compared")
    return()
  endif()
  message(FATAL_ERROR
          "check_bench_regression: only ${num_matched} record(s) of "
          "${FRESH_JSON} match ${COMMITTED_JSON} by name"
          " — the smoke grid and the committed grid have "
          "drifted apart; re-run the full bench and commit it")
endif()

# Anchor-relative shapes.  shape(row) = value(row) / value(anchor), scaled
# by 1e6; a drop means the row lost ground against the anchor in the fresh
# run.  An anchor-only regression shows up as every other row "improving",
# which passes — the tolerance is deliberately one-sided, so only use data
# from grids with at least two non-anchor rows for real protection.
list(GET matched_names 0 anchor)
set(failures "")
foreach(name IN LISTS matched_names)
  if(name STREQUAL anchor)
    continue()
  endif()
  math(EXPR fresh_shape
       "(${fresh_of_${name}} * 1000000) / ${fresh_of_${anchor}}")
  math(EXPR committed_shape
       "(${committed_of_${name}} * 1000000) / ${committed_of_${anchor}}")
  if(DIRECTION STREQUAL "higher")
    math(EXPR floor_shape
         "(${committed_shape} * (100 - ${TOLERANCE_PCT})) / 100")
    if(fresh_shape LESS floor_shape)
      math(EXPR drop_pct
           "100 - (${fresh_shape} * 100) / ${committed_shape}")
      list(APPEND failures
           "'${name}' fell ${drop_pct}% vs '${anchor}' (committed shape "
           "${committed_shape}, fresh ${fresh_shape}, floor ${floor_shape})")
    endif()
  else()
    math(EXPR ceiling_shape
         "(${committed_shape} * (100 + ${TOLERANCE_PCT})) / 100")
    if(fresh_shape GREATER ceiling_shape)
      math(EXPR rise_pct
           "(${fresh_shape} * 100) / ${committed_shape} - 100")
      list(APPEND failures
           "'${name}' rose ${rise_pct}% vs '${anchor}' (committed shape "
           "${committed_shape}, fresh ${fresh_shape}, ceiling "
           "${ceiling_shape})")
    endif()
  endif()
endforeach()

if(failures)
  string(REPLACE ";" "\n  " failure_text "${failures}")
  message(FATAL_ERROR "check_bench_regression: relative ${FIELD} "
                      "regression beyond ${TOLERANCE_PCT}%:\n  "
                      "${failure_text}")
endif()

message(STATUS "check_bench_regression: ${num_matched} matched records of "
               "${FRESH_JSON} within ${TOLERANCE_PCT}% of the committed "
               "shape (anchor '${anchor}')")
