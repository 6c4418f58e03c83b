# Adds bench/suite to the repository build while bench/CMakeLists.txt does
# not. run.py passes this file as CMAKE_PROJECT_INCLUDE when it configures
# the repository root; CMake reads it inside the root's project() call, and
# it defers reading bench/suite/CMakeLists.txt to the end of the root
# CMakeLists.txt, where every flag and target the suite inherits is set.
# (A deferred call may not add a subdirectory, so the file is included.)
# Once the repository adds the directory itself, this does nothing.
if(CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  function(wfd_suite_add)
    if(NOT TARGET wfd_bench)
      include(${CMAKE_CURRENT_FUNCTION_LIST_DIR}/CMakeLists.txt)
    endif()
  endfunction()
  cmake_language(DEFER CALL wfd_suite_add)
endif()
