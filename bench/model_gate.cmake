# Model gates, run as ctests (see bench/CMakeLists.txt). -DGATE= selects:
#
#   crossval — fit models on the committed BENCH_tables.json with every
#     third cell held out; model_suite itself fails (exit 1) when the
#     median held-out relative error exceeds the documented 15% tolerance.
#
#   screen — end-to-end analytic-screen check: fit on the committed
#     baseline, rerun table_suite with --screen, then require (a) at least
#     one cell was skipped and (b) bench_diff --allow-screened finds zero
#     drift in the cells that WERE simulated.
#
#   cmake -DGATE=crossval -DMODEL_SUITE=... -DBASELINE=... -DOUT_DIR=...
#         [-DTABLE_SUITE=... -DBENCH_DIFF=...] -P model_gate.cmake
foreach(var GATE MODEL_SUITE BASELINE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "model_gate.cmake: -D${var}=... is required")
  endif()
endforeach()

if(GATE STREQUAL "crossval")
  execute_process(COMMAND "${MODEL_SUITE}" "--json=${BASELINE}"
                          "--crossval=3" "--tol=0.15"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "model crossval gate failed (exit ${rc}): fitted models no "
            "longer predict held-out cells of ${BASELINE} within 15% median "
            "relative error")
  endif()
elseif(GATE STREQUAL "screen")
  foreach(var TABLE_SUITE BENCH_DIFF)
    if(NOT DEFINED ${var})
      message(FATAL_ERROR "model_gate.cmake: -D${var}=... is required")
    endif()
  endforeach()
  set(model "${OUT_DIR}/screen_model.json")
  set(screened "${OUT_DIR}/screened_tables.json")
  execute_process(COMMAND "${MODEL_SUITE}" "--json=${BASELINE}"
                          "--model=${model}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "model_suite failed (exit ${rc})")
  endif()
  execute_process(COMMAND "${TABLE_SUITE}" "--screen=${model}"
                          "--json=${screened}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "table_suite --screen failed (exit ${rc})")
  endif()
  file(READ "${screened}" screened_text)
  string(REGEX MATCH "\"screened_cells\": ([0-9]+)" m "${screened_text}")
  if(NOT m OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR
            "screen gate failed: table_suite --screen skipped no cells "
            "(the fitted model predicts nothing within tolerance)")
  endif()
  execute_process(COMMAND "${BENCH_DIFF}" "--allow-screened"
                          "${BASELINE}" "${screened}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "screen gate failed (exit ${rc}): bench_diff --allow-screened "
            "found a mismatch against ${BASELINE} (see its output above) — "
            "screening must leave simulated cells byte-identical")
  endif()
else()
  message(FATAL_ERROR "model_gate.cmake: unknown GATE '${GATE}'")
endif()
