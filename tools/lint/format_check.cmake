# Runs `clang-format --dry-run --Werror` over every first-party source file.
# Invoked with -DCLANG_FORMAT=... -DROOT=... by the `lint.format` ctest case
# and by ci.yml's lint job, so both check this one list (fixture files are
# deliberately malformed and excluded).

if(NOT CLANG_FORMAT OR NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DCLANG_FORMAT=<bin> -DROOT=<repo> -P format_check.cmake")
endif()

file(GLOB_RECURSE sources
     ${ROOT}/src/*.h ${ROOT}/src/*.cpp
     ${ROOT}/tests/*.cpp
     ${ROOT}/bench/*.h ${ROOT}/bench/*.cpp
     ${ROOT}/examples/*.cpp
     ${ROOT}/tools/lint/pc_lint.cpp
     ${ROOT}/tools/pc_trace/pc_trace.cpp
     ${ROOT}/tools/pc_party/pc_party.cpp)

list(LENGTH sources count)
message(STATUS "format check: ${count} files")

execute_process(COMMAND ${CLANG_FORMAT} --dry-run --Werror ${sources}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clang-format check failed (run: clang-format -i on the files above)")
endif()
