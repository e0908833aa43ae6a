# Runs one figure bench and compares its stdout byte for byte against a
# golden file. The figure benches are deterministic: every table cell comes
# from a seeded simulation.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P compare.cmake
#
# Regenerate a golden file with `<binary> > <file>` after a
# change that is meant to move a figure, and say why in the commit.
#
# swarm_digests.txt is not read by this script: CI's "Swarm digests
# identical across thread counts" step diffs bench_swarm's (K, digest)
# pairs against it, so a change to event order fails there. A change that
# is meant to move the simulation regenerates it from a Release build with
# the step's own sweep and awk filter:
#
#   STANK_SWARM_NS=100 STANK_SWARM_N_SHARDED=2000 STANK_SWARM_KS=2,4 \
#   STANK_SWARM_THREADS=1 ./build/bench/bench_swarm | awk -F'|' '
#     function t(s) { gsub(/^ +| +$/, "", s); return s }
#     !d { for (i = 2; i < NF; i++) { if (t($i) == "digest") d = i; if (t($i) == "K") k = i } next }
#     t($k) ~ /^[0-9]+$/ { print t($k), t($d) }' > bench/golden/swarm_digests.txt
if(NOT BENCH OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DGOLDEN=<file> -P compare.cmake")
endif()

execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
  file(WRITE "${actual_file}" "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}\n"
                      "actual output written to ${actual_file}\n"
                      "diff: diff -u ${GOLDEN} ${actual_file}")
endif()
