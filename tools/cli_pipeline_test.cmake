# ctest driver for the srtree_cli pipeline: generate a dataset, index it,
# check the index, and run a query. Any non-zero exit fails the test. Then
# the boundary probes: malformed queries and a dataset with a non-finite
# coordinate must each be rejected with INVALID_ARGUMENT.

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGV}")
  endif()
endfunction()

function(run_rejected_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "step should have been rejected: ${ARGV}")
  endif()
  if(NOT err MATCHES "INVALID_ARGUMENT")
    message(FATAL_ERROR
            "step failed (${rc}) without INVALID_ARGUMENT: ${err} ${ARGV}")
  endif()
endfunction()

set(csv ${WORK_DIR}/cli_test_data.csv)
set(idx ${WORK_DIR}/cli_test_index.srt)
set(point
    0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625)
set(nan_point
    nan,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625,0.0625)

run_step(${CLI} generate --kind real --n 2000 --dim 16 --seed 5
         --output ${csv})
run_step(${CLI} build --input ${csv} --index ${idx})
run_step(${CLI} stats --index ${idx})
run_step(${CLI} query --index ${idx} --k 5 --point ${point})
run_step(${CLI} range --index ${idx} --radius 0.5 --point ${point})

run_rejected_step(${CLI} query --index ${idx} --k 5 --point ${nan_point})
run_rejected_step(${CLI} range --index ${idx} --radius nan --point ${point})
run_rejected_step(${CLI} query --index ${idx} --k 0 --point ${point})

# A build over a dataset with one NaN row stores nothing: no index file.
set(nan_csv ${WORK_DIR}/cli_test_nan_row.csv)
set(nan_idx ${WORK_DIR}/cli_test_nan_row.srt)
file(WRITE ${nan_csv} "${point}\n${nan_point}\n${point}\n")
file(GLOB stale ${nan_idx}*)
if(stale)
  file(REMOVE ${stale})
endif()
run_rejected_step(${CLI} build --input ${nan_csv} --index ${nan_idx})
file(GLOB left_behind ${nan_idx}*)
if(left_behind)
  message(FATAL_ERROR "rejected build left files behind: ${left_behind}")
endif()
