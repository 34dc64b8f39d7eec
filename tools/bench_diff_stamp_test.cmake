# ctest driver for bench_diff.py's machine stamps: a copy of a stamped
# snapshot with another build type must pass a structure-only diff (CI
# diffs runner builds against the checked-in snapshots that way) and fail
# one that compares numbers (--fail-above).

file(READ ${SNAPSHOT} doc)
string(REPLACE "\"build_type\": \"" "\"build_type\": \"other-" other "${doc}")
if(other STREQUAL doc)
  message(FATAL_ERROR "${SNAPSHOT} carries no build_type stamp")
endif()
set(copy ${WORK_DIR}/bench_diff_other_stamp.json)
file(WRITE ${copy} "${other}")

execute_process(COMMAND ${PYTHON} ${DIFF} ${SNAPSHOT} ${copy}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "STAMP build_type")
  message(FATAL_ERROR "structure-only diff (${rc}): ${out}")
endif()

execute_process(COMMAND ${PYTHON} ${DIFF} ${SNAPSHOT} ${copy}
                        --fail-above 1000
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "numeric diff across stamps should fail (${rc}): ${out}")
endif()
