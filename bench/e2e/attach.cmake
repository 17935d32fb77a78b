# Adds bench/e2e to a build of the top-level project:
#
#   cmake -S . -B <dir> -DCMAKE_PROJECT_ccdb_INCLUDE=$PWD/bench/e2e/attach.cmake
#
# CMake includes this file right after project(ccdb). The deferred call
# runs once the top-level CMakeLists.txt has been read, in its directory
# scope, so e2e_query gets the same flags, options and include directories
# as every other target. A project that already lists bench/e2e is left
# alone.
function(ccdb_attach_e2e)
  if(NOT TARGET e2e_query)
    include(${CMAKE_CURRENT_FUNCTION_LIST_DIR}/CMakeLists.txt)
  endif()
endfunction()
cmake_language(DEFER CALL ccdb_attach_e2e)
