# Golden-output test driver: runs ${EXE} ${ARGS} in a fresh ${WORKDIR},
# appends every file named in ${FILES} that the run wrote there, drops
# the lines and fields that hold wall-clock readings, and compares the
# rest byte for byte with ${GOLDEN}. With -DUPDATE=ON it writes ${GOLDEN}
# instead of comparing. Registered by sbk_add_golden_test in
# tests/CMakeLists.txt; scripts/update_golden.sh rewrites every file.
foreach(var EXE GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND ${EXE} ${ARGS}
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} [${ARGS}] exited with ${rc}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
foreach(f IN LISTS FILES)
  file(READ "${WORKDIR}/${f}" content)
  string(APPEND out "==> ${f} <==\n${content}")
endforeach()

# Wall-clock readings: sweep timing/speedup lines, and the service
# soak's wall time, throughput and peak RSS fields.
string(REGEX REPLACE "\n(sweep: |csv,sweep-speedup,)[^\n]*" "" out
                     "\n${out}")
string(SUBSTRING "${out}" 1 -1 out)
string(REGEX REPLACE
       "\"(wall_seconds|throughput_msgs_per_s|peak_rss_mb)\":[^,}]*,?" ""
       out "${out}")

if(UPDATE)
  file(WRITE "${GOLDEN}" "${out}")
  message(STATUS "wrote ${GOLDEN}")
else()
  file(READ "${GOLDEN}" expected)
  if(NOT out STREQUAL expected)
    file(WRITE "${WORKDIR}/actual.txt" "${out}")
    execute_process(COMMAND diff -u "${GOLDEN}" "${WORKDIR}/actual.txt")
    message(FATAL_ERROR "output of ${EXE} [${ARGS}] differs from ${GOLDEN}"
                        " (actual: ${WORKDIR}/actual.txt)")
  endif()
endif()
