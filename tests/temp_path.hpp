// Per-test scratch file paths. ctest runs every gtest case as its own
// process, concurrently under -j, so a fixed file name shared by two cases
// lets one case's cleanup delete the other's file mid-test. Prefixing the
// test case name, the test name and the pid makes a path private to one
// running test, also when two suites run side by side.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace cpt::test {

inline std::string temp_path(const std::string& name) {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
    // Parameterized suites name themselves "Prefix/Suite" and "Test/0".
    std::replace(tag.begin(), tag.end(), '/', '_');
    return ::testing::TempDir() + tag + "_" + std::to_string(::getpid()) + "_" + name;
}

}  // namespace cpt::test
