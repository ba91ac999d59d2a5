# Project-include hook for the ledger benchmark. Configure with
#   cmake -S . -B build-ledger -DCMAKE_PROJECT_rmc_INCLUDE=$PWD/bench/ledger/hook.cmake
# CMake runs this right after project(rmc), before the top-level file sets
# its compile flags, so the targets are defined at the end of the top-level
# directory instead: they then build with exactly the flags every other
# target gets. (A deferred add_subdirectory is rejected, hence include.)
set(RMC_LEDGER_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${RMC_LEDGER_DIR}/targets.cmake)
