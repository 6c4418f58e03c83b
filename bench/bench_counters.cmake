# The bench.*_counters ctest entries: runs one bench with ARGS (a
# space-separated string, e.g. "--quick --jobs 1") and checks every exact
# counter it reports against a committed baseline with
# tools/bench_compare.py. --min-ratio 0 keeps wall-clock rates out of
# ctest; CI's bench jobs gate them.
#
#   cmake -DBENCH=bench_explore "-DARGS=--quick --jobs 1" -DPYTHON=python3
#         -DCOMPARE=bench_compare.py -DBASELINE=BENCH_explore.baseline.json
#         -DOUT=out.json -P bench_counters.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args} --json ${OUT}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${rc}")
endif()
execute_process(COMMAND ${PYTHON} ${COMPARE} --baseline ${BASELINE}
                        --candidate ${OUT} --min-ratio 0
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_compare exited ${rc}")
endif()
