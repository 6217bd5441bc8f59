/**
 * @file
 * CLI-level tests for the operator CLI: the campaign binary's merge,
 * compare, query and ctl subcommands are exercised as subprocesses —
 * the way CI and operators run them — pinning exit codes (regression
 * counts, usage errors), corrupt-input tolerance and the merge byte
 * contract. The binary's path comes from the build via the
 * PTH_TOOL_CAMPAIGN compile definition.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

/** One tool invocation: exit code plus captured stdout/stderr. */
struct CliResult
{
    int exit = -1;
    std::string out;
    std::string err;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Run `campaign args...` through the shell, capturing everything.
 * Paths in args must not need quoting beyond the double quotes
 * added. */
CliResult
runCli(const std::vector<std::string> &args)
{
    const std::string outPath = testing::TempDir() + "pth_cli_out";
    const std::string errPath = testing::TempDir() + "pth_cli_err";
    std::string cmd = "\"" PTH_TOOL_CAMPAIGN "\"";
    for (const std::string &arg : args)
        cmd += " \"" + arg + "\"";
    cmd += " > \"" + outPath + "\" 2> \"" + errPath + "\"";

    CliResult result;
    const int status = std::system(cmd.c_str());
    result.exit = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.out = readFile(outPath);
    result.err = readFile(errPath);
    std::remove(outPath.c_str());
    std::remove(errPath.c_str());
    return result;
}

std::string
tempPath(const char *name)
{
    const std::string path = testing::TempDir() + "pth_cli_" + name;
    std::remove(path.c_str());
    return path;
}

RunResult
makeRun(std::size_t index, std::uint64_t flips)
{
    RunResult r;
    r.index = index;
    r.label = "cli" + std::to_string(index);
    r.machine = "Test Small";
    r.defense = "none";
    r.strategy = "pthammer";
    r.dramModel = "ddr3";
    r.seed = 10 + index;
    r.flips = flips;
    r.flipped = flips > 0;
    r.attempts = 1;
    r.simSeconds = static_cast<double>(index + 1);
    r.report.flipped = r.flipped;
    r.report.timeToFirstFlipMinutes = r.flipped ? 1.0 : 0.0;
    return r;
}

void
writeJournal(const std::string &path,
             const std::vector<RunResult> &runs)
{
    std::ofstream out(path, std::ios::trunc);
    for (const RunResult &r : runs)
        out << ResultStore::serialize(r, 100 + r.index) << '\n';
}

/** writeJournal plus one torn line, as a killed writer leaves it. */
void
writeTornJournal(const std::string &path,
                 const std::vector<RunResult> &runs)
{
    writeJournal(path, runs);
    std::ofstream out(path, std::ios::app);
    out << "{\"torn\":  \n";
}

// ---------------------------------------------------------------- //
// campaign (no subcommand)                                         //
// ---------------------------------------------------------------- //

TEST(CampaignCli, HelpNamesEverySubcommandAndBadOnesExitTwo)
{
    const CliResult help = runCli({"--help"});
    EXPECT_EQ(help.exit, 0);
    for (const char *sub : {"merge", "query", "compare", "ctl"})
        EXPECT_NE(help.out.find(sub), std::string::npos) << sub;

    EXPECT_EQ(runCli({}).exit, 2);
    const CliResult unknown = runCli({"bogus"});
    EXPECT_EQ(unknown.exit, 2);
    EXPECT_NE(unknown.err.find("unknown subcommand 'bogus'"),
              std::string::npos)
        << unknown.err;
}

TEST(CampaignCli, AFlagIsNeverAValue)
{
    const std::string journal = tempPath("flag_value.jsonl");
    writeJournal(journal, {makeRun(0, 1)});

    // "-o --fresh" is a missing value, not an output named "--fresh".
    std::remove("--fresh");
    const CliResult merge =
        runCli({"merge", journal, "-o", "--fresh"});
    EXPECT_EQ(merge.exit, 2);
    EXPECT_NE(merge.err.find("missing value for '-o'"),
              std::string::npos)
        << merge.err;
    EXPECT_FALSE(std::ifstream("--fresh").good());

    const CliResult compare = runCli(
        {"compare", journal, journal, "--tolerance", "--all"});
    EXPECT_EQ(compare.exit, 2);
    EXPECT_NE(compare.err.find("missing value for '--tolerance'"),
              std::string::npos)
        << compare.err;
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------- //
// campaign merge                                                   //
// ---------------------------------------------------------------- //

TEST(CampaignMergeCli, MergesShardsAndCountsSupersededDuplicates)
{
    const std::string a = tempPath("merge_a.jsonl");
    const std::string b = tempPath("merge_b.jsonl");
    const std::string out = tempPath("merge_out.jsonl");
    writeJournal(a, {makeRun(0, 1), makeRun(1, 1)});
    writeJournal(b, {makeRun(1, 9), makeRun(2, 2)});

    const CliResult result =
        runCli({"merge", a, b, "-o", out});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.err.find("merged 3 run(s) from 2 journal(s)"),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find("1 superseded"), std::string::npos);

    // Byte contract: the file equals the library merge of the same
    // inputs in the same order.
    const std::string expected = tempPath("merge_lib.jsonl");
    ASSERT_TRUE(ResultStore::merge({a, b}, expected));
    EXPECT_EQ(readFile(out), readFile(expected));

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(out.c_str());
    std::remove(expected.c_str());
}

TEST(CampaignMergeCli, ToleratesCorruptAndMissingInputs)
{
    const std::string a = tempPath("merge_torn.jsonl");
    const std::string out = tempPath("merge_torn_out.jsonl");
    {
        std::ofstream os(a, std::ios::trunc);
        os << ResultStore::serialize(makeRun(0, 1), 100) << '\n';
        os << "{\"torn\":  \n";
    }
    const CliResult result =
        runCli({"merge", a, "/nonexistent/s1.jsonl", "-o", out});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.err.find("skipped 1 corrupt line(s)"),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find("1 input journal(s) missing"),
              std::string::npos);

    // All inputs missing: hard failure, no output left behind.
    const CliResult nothing = runCli(
        {"merge", "/nonexistent/s0.jsonl", "-o", out + ".none"});
    EXPECT_EQ(nothing.exit, 1);
    EXPECT_NE(nothing.err.find("no readable input journal"),
              std::string::npos);
    EXPECT_TRUE(readFile(out + ".none").empty());

    std::remove(a.c_str());
    std::remove(out.c_str());
}

TEST(CampaignMergeCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(runCli({"merge"}).exit, 2);
    EXPECT_EQ(runCli({"merge", "--bogus", "x.jsonl"}).exit, 2);
    EXPECT_EQ(runCli({"merge", "--help"}).exit, 0);
}

// ---------------------------------------------------------------- //
// campaign compare                                                 //
// ---------------------------------------------------------------- //

TEST(CampaignCompareCli, ExitStatusIsTheRegressionCount)
{
    const std::string base = tempPath("cmp_base.jsonl");
    const std::string same = tempPath("cmp_same.jsonl");
    const std::string worse = tempPath("cmp_worse.jsonl");
    const std::vector<RunResult> runs = {makeRun(0, 3), makeRun(1, 2),
                                         makeRun(2, 0)};
    writeJournal(base, runs);
    writeJournal(same, runs);
    std::vector<RunResult> regressed = runs;
    regressed[0].flips = 1;         // fewer flips
    regressed[1].ok = false;        // now fails
    regressed[1].error = "boom";
    writeJournal(worse, regressed);

    EXPECT_EQ(runCli({"compare", base, same}).exit, 0);
    const CliResult result = runCli({"compare", base, worse});
    EXPECT_EQ(result.exit, 2) << result.out;
    EXPECT_NE(result.out.find("2 regressed"), std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("REGRESSION"), std::string::npos);

    std::remove(base.c_str());
    std::remove(same.c_str());
    std::remove(worse.c_str());
}

TEST(CampaignCompareCli, BadArtifactsAndCorruptLinesAreSurfaced)
{
    const std::string good = tempPath("cmp_good.jsonl");
    writeJournal(good, {makeRun(0, 1)});

    EXPECT_EQ(runCli({"compare", "/nonexistent/a.jsonl", good}).exit,
              2);
    EXPECT_EQ(runCli({"compare", good}).exit, 2);

    // A torn line warns but does not fail the comparison.
    const std::string torn = tempPath("cmp_torn.jsonl");
    {
        std::ofstream os(torn, std::ios::trunc);
        os << ResultStore::serialize(makeRun(0, 1), 100) << '\n';
        os << "{{{\n";
    }
    const CliResult result = runCli({"compare", good, torn});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.err.find("skipped 1 corrupt journal line(s)"),
              std::string::npos)
        << result.err;

    // The same warning with --filter, whichever side is torn.
    const std::string tornBase = tempPath("cmp_torn_base.jsonl");
    writeTornJournal(tornBase, {makeRun(0, 1)});
    const CliResult filtered = runCli(
        {"compare", tornBase, good, "--filter", "defense=none"});
    EXPECT_EQ(filtered.exit, 0) << filtered.err;
    EXPECT_NE(filtered.err.find("skipped 1 corrupt journal line(s)"),
              std::string::npos)
        << filtered.err;

    std::remove(good.c_str());
    std::remove(torn.c_str());
    std::remove(tornBase.c_str());
}

TEST(CampaignCompareCli, FilterNarrowsTheComparedRuns)
{
    const std::string base = tempPath("filter_base.jsonl");
    const std::string worse = tempPath("filter_worse.jsonl");
    std::vector<RunResult> runs = {makeRun(0, 3), makeRun(1, 2)};
    runs[1].defense = "trr";
    writeJournal(base, runs);
    std::vector<RunResult> regressed = runs;
    regressed[0].flips = 1; // fewer flips, on the defense=none run
    writeJournal(worse, regressed);

    const CliResult result =
        runCli({"compare", base, worse, "--filter", "defense=none"});
    EXPECT_EQ(result.exit, 1) << result.out;
    EXPECT_NE(result.out.find("1 regressed"), std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("1 baseline runs, 1 current"),
              std::string::npos)
        << result.out;
    // A regression outside the filter is not counted.
    const CliResult outside =
        runCli({"compare", base, worse, "--filter=defense=trr"});
    EXPECT_EQ(outside.exit, 0) << outside.out;
    EXPECT_NE(outside.out.find("0 regressed"), std::string::npos)
        << outside.out;
    EXPECT_EQ(runCli({"compare", base, base, "--filter", "defense=none"})
                  .exit,
              0);
    EXPECT_EQ(runCli({"compare", base, worse, "--filter", "bogus=1"})
                  .exit,
              2);
    // compare needs exactly two artifacts.
    EXPECT_EQ(runCli({"compare", base}).exit, 2);

    std::remove(base.c_str());
    std::remove(worse.c_str());
}

TEST(CampaignCompareCli, ToleranceIsAFiniteNonNegativeDecimal)
{
    const std::string base = tempPath("tol_base.jsonl");
    const std::string slower = tempPath("tol_slower.jsonl");
    std::vector<RunResult> runs = {makeRun(0, 1), makeRun(1, 1),
                                   makeRun(2, 1)};
    writeJournal(base, runs);
    for (RunResult &r : runs)
        r.simSeconds *= 1.05; // every run 5% slower
    writeJournal(slower, runs);

    EXPECT_EQ(runCli({"compare", base, slower, "--tolerance", "2.5"})
                  .exit,
              3);
    EXPECT_EQ(runCli({"compare", base, slower, "--tolerance=10"}).exit,
              0);
    for (const std::vector<std::string> &flag :
         std::vector<std::vector<std::string>>{{"--tolerance", "abc"},
                                               {"--tolerance=1x"},
                                               {"--tolerance", "-50"},
                                               {"--tolerance", "nan"}}) {
        std::vector<std::string> args = {"compare", base, slower};
        args.insert(args.end(), flag.begin(), flag.end());
        const CliResult bad = runCli(args);
        EXPECT_EQ(bad.exit, 2) << flag.back();
        EXPECT_NE(bad.err.find("bad --tolerance"), std::string::npos)
            << bad.err;
    }
    std::remove(base.c_str());
    std::remove(slower.c_str());
}

// ---------------------------------------------------------------- //
// campaign query                                                   //
// ---------------------------------------------------------------- //

TEST(CampaignQueryCli, FiltersGroupsAndFoldsArtifacts)
{
    const std::string a = tempPath("query_a.jsonl");
    const std::string b = tempPath("query_b.jsonl");
    std::vector<RunResult> runs = {makeRun(0, 1), makeRun(1, 0)};
    runs[1].defense = "trr";
    writeJournal(a, runs);
    writeJournal(b, {makeRun(1, 5)}); // supersedes run 1

    CliResult result = runCli({"query", a, b});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.out.find("2 run(s) selected of 2 indexed"),
              std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("1 superseded"), std::string::npos);

    result = runCli({"query", a, "--filter", "defense=trr"});
    EXPECT_EQ(result.exit, 0);
    EXPECT_NE(result.out.find("cli1"), std::string::npos);
    EXPECT_EQ(result.out.find("cli0"), std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("1 run(s) selected of 2"),
              std::string::npos);

    result = runCli({"query", a, "--group-by", "defense"});
    EXPECT_EQ(result.exit, 0);
    EXPECT_NE(result.out.find("none"), std::string::npos);
    EXPECT_NE(result.out.find("trr"), std::string::npos);

    EXPECT_EQ(runCli({"query", a, "--filter", "bogus=1"}).exit, 2);
    EXPECT_EQ(runCli({"query", a, "--group-by", "bogus"}).exit, 2);
    EXPECT_EQ(runCli({"query"}).exit, 2);

    // A torn journal is queried on its intact lines, with a warning.
    const std::string torn = tempPath("query_torn.jsonl");
    writeTornJournal(torn, runs);
    result = runCli({"query", torn});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.err.find("skipped 1 corrupt journal line(s)"),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.out.find("2 run(s) selected of 2 indexed"),
              std::string::npos)
        << result.out;

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(torn.c_str());
}

// ---------------------------------------------------------------- //
// campaign ctl                                                     //
// ---------------------------------------------------------------- //

TEST(CampaignCtlCli, UsageAndManifestErrorsExitTwo)
{
    EXPECT_EQ(runCli({"ctl", "--help"}).exit, 0);
    EXPECT_EQ(runCli({"ctl"}).exit, 2);
    EXPECT_EQ(runCli({"ctl", "/nonexistent/manifest.json"}).exit, 2);

    const std::string manifest = tempPath("ctl_bad.json");
    {
        std::ofstream os(manifest, std::ios::trunc);
        os << R"({"campaigns": [{"name": "a", "program": "x",
                  "shardz": 2}]})";
    }
    const CliResult result = runCli({"ctl", manifest});
    EXPECT_EQ(result.exit, 2);
    EXPECT_NE(result.err.find("unknown key"), std::string::npos)
        << result.err;

    // --inject-kill must name a shard the manifest actually has.
    const std::string ok = tempPath("ctl_ok.json");
    {
        std::ofstream os(ok, std::ios::trunc);
        os << R"({"campaigns": [{"name": "a", "program": "/bin/true",
                  "shards": 2}]})";
    }
    const CliResult inject =
        runCli({"ctl", ok, "--inject-kill", "a/7"});
    EXPECT_EQ(inject.exit, 2);
    EXPECT_NE(inject.err.find("names no shard"), std::string::npos)
        << inject.err;

    // Counts, an --inject-kill SHARD among them, are whole
    // non-negative decimals that fit an unsigned, and a flag is never
    // another flag's value.
    const std::vector<std::pair<std::vector<std::string>, const char *>>
        badArgs = {
            {{"ctl", ok, "--workers", "x"}, "bad --workers 'x'"},
            {{"ctl", ok, "--inject-kill", "a/4294967296"},
             "bad --inject-kill 'a/4294967296'"},
            {{"ctl", ok, "--inject-kill=a/+0"},
             "bad --inject-kill 'a/+0'"},
            {{"ctl", ok, "--out", "--fresh"},
             "missing value for '--out'"},
        };
    for (const auto &item : badArgs) {
        const CliResult bad = runCli(item.first);
        EXPECT_EQ(bad.exit, 2) << item.second;
        EXPECT_NE(bad.err.find(item.second), std::string::npos)
            << bad.err;
    }

    std::remove(manifest.c_str());
    std::remove(ok.c_str());
}

TEST(CampaignCtlCli, PermanentWorkerDeathYieldsNonzeroExit)
{
    const std::string outDir = testing::TempDir() + "pth_cli_ctl";
    ::system(("mkdir -p \"" + outDir + "\"").c_str());
    const std::string manifest = tempPath("ctl_dead.json");
    {
        std::ofstream os(manifest, std::ios::trunc);
        os << R"({"campaigns": [{"name": "dead",
                  "program": "/nonexistent/bench"}]})";
    }
    const CliResult result = runCli(
        {"ctl", manifest, "--out", outDir, "--fresh", "--quiet"});
    EXPECT_EQ(result.exit, 1) << result.err;
    EXPECT_NE(result.err.find("campaign dead failed"),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find("1 of 1 campaign(s) failed"),
              std::string::npos);
    EXPECT_NE(result.out.find("FAILED"), std::string::npos)
        << result.out;
    std::remove(manifest.c_str());
}

} // namespace
} // namespace pth
