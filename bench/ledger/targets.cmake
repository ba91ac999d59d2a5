# Included from hook.cmake at the end of the top-level CMakeLists.txt.
add_executable(rmc_ledger ${RMC_LEDGER_DIR}/rmc_ledger.cc)
target_link_libraries(rmc_ledger PRIVATE rmc_harness)
