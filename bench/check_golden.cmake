# The bench_golden ctest: runs every bench that has a checked-in
# bench/golden/<name>.out and compares its stdout with it byte for
# byte.  Fresh outputs land in <bench dir>/golden-out; copying them
# over bench/golden re-blesses an intended change.
file(GLOB goldens ${GOLDEN_DIR}/*.out)
set(out_dir ${BENCH_DIR}/golden-out)
file(MAKE_DIRECTORY ${out_dir})
set(failed "")
foreach(golden IN LISTS goldens)
    get_filename_component(bench ${golden} NAME_WE)
    execute_process(COMMAND ${BENCH_DIR}/${bench}
                    OUTPUT_FILE ${out_dir}/${bench}.out
                    ERROR_QUIET RESULT_VARIABLE rc)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${out_dir}/${bench}.out ${golden}
                    RESULT_VARIABLE differs)
    if(NOT rc EQUAL 0 OR NOT differs EQUAL 0)
        list(APPEND failed "${bench}: exit ${rc}, got ${out_dir}/${bench}.out")
    endif()
endforeach()
if(failed)
    list(JOIN failed "\n  " lines)
    message(FATAL_ERROR "stdout differs from bench/golden:\n  ${lines}")
endif()
