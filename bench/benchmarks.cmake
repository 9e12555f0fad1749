# The paper's table, figure, ablation and future-work binaries. Included from the top-level CMakeLists (not via
# add_subdirectory) so that ${CMAKE_BINARY_DIR}/bench contains only runnable
# binaries: the canonical reproduction command is
#   for b in build/bench/*; do $b; done

add_library(rloop_bench_common ${CMAKE_SOURCE_DIR}/bench/common.cc)
target_include_directories(rloop_bench_common PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(rloop_bench_common
  PUBLIC rloop_scenarios rloop_core rloop_analysis rloop_baseline)

function(rloop_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE rloop_bench_common ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

rloop_bench(table1_traces)
rloop_bench(table2_loops)
rloop_bench(fig2_ttl_delta)
rloop_bench(fig3_stream_size)
rloop_bench(fig4_spacing)
rloop_bench(fig5_traffic_mix)
rloop_bench(fig6_looped_mix)
rloop_bench(fig7_dst_timeseries)
rloop_bench(fig8_stream_duration)
rloop_bench(fig9_loop_duration)
rloop_bench(impact_loss_delay)
rloop_bench(baseline_comparison)
rloop_bench(ablation_detector)
rloop_bench(correlation_routing rloop_correlate)
rloop_bench(persistent_loops rloop_correlate)
rloop_bench(ablation_sampling)
rloop_bench(bidirectional_taps)
