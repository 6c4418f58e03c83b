# The bench.explore_counters ctest entry: runs bench_explore --quick
# --jobs 1 and checks every exact counter it reports (schedules, steps,
# restores, memo hits, frontier jobs, gate status) against the committed
# bench/BENCH_explore.baseline.json with tools/bench_compare.py. --min-ratio 0
# keeps wall-clock rates out of ctest; CI's explore job gates them.
#
#   cmake -DBENCH=bench_explore -DPYTHON=python3 -DCOMPARE=bench_compare.py
#         -DBASELINE=BENCH_explore.baseline.json -DOUT=out.json
#         -P explore_counters.cmake
execute_process(COMMAND ${BENCH} --quick --jobs 1 --json ${OUT}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_explore --quick --jobs 1 exited ${rc}")
endif()
execute_process(COMMAND ${PYTHON} ${COMPARE} --baseline ${BASELINE}
                        --candidate ${OUT} --min-ratio 0
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_compare exited ${rc}")
endif()
