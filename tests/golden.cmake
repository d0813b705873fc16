# Runs one case of the golden corpus and byte-compares its outputs with the
# checked-in files. Invoked by ctest with -DCLI (redcr_cli), -DCASE (the
# case name), -DGOLDEN (the stem of the expected files; two cases may share
# one, e.g. the same run on two engines), -DGOLDEN_DIR (tests/golden) and
# -DOUT_DIR (where this run's outputs land).
#
# GOLDEN_DIR/CASE.args holds the redcr_cli arguments, one per line. In them
# {OUT} stands for OUT_DIR/CASE (sink files are named {OUT}.<suffix>) and
# {GOLDEN_DIR} for GOLDEN_DIR (analyze cases read a checked-in journal).
# stdout and stderr are always compared; every sink file the run writes is
# compared with GOLDEN.<suffix>. The run must exit 0 (completed) or 1 (the
# job did not complete; its stdout says why).
#
# Regenerate the corpus after a deliberate output change with
#   REDCR_GOLDEN_UPDATE=1 ctest -L golden
# which copies each output over its golden instead of comparing.
file(STRINGS "${GOLDEN_DIR}/${CASE}.args" args)
string(REPLACE "{OUT}" "${OUT_DIR}/${CASE}" args "${args}")
string(REPLACE "{GOLDEN_DIR}" "${GOLDEN_DIR}" args "${args}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(suffix stdout stderr journal.ndjson metrics.ndjson trace.json)
  file(REMOVE "${OUT_DIR}/${CASE}.${suffix}")
endforeach()
execute_process(
  COMMAND "${CLI}" ${args}
  OUTPUT_FILE "${OUT_DIR}/${CASE}.stdout"
  ERROR_FILE "${OUT_DIR}/${CASE}.stderr"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0 AND NOT status EQUAL 1)
  file(READ "${OUT_DIR}/${CASE}.stderr" report)
  message(FATAL_ERROR "redcr_cli exited with '${status}':\n${report}")
endif()
set(mismatches "")
foreach(suffix stdout stderr journal.ndjson metrics.ndjson trace.json)
  set(out "${OUT_DIR}/${CASE}.${suffix}")
  set(golden "${GOLDEN_DIR}/${GOLDEN}.${suffix}")
  if(NOT EXISTS "${out}")
    continue()
  endif()
  if(DEFINED ENV{REDCR_GOLDEN_UPDATE})
    file(COPY_FILE "${out}" "${golden}")
    continue()
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}" "${golden}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    string(APPEND mismatches "\n  ${out} differs from ${golden}")
  endif()
endforeach()
if(mismatches)
  message(FATAL_ERROR "golden case ${CASE}:${mismatches}")
endif()
