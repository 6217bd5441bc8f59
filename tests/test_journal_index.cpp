/**
 * @file
 * JournalIndex tests: filter/group-by answers checked against
 * hand-computed aggregates over hand-built journals, multi-journal
 * last-wins folding checked for consistency with ResultStore::merge,
 * corrupt-line tolerance, artifact sniffing (journal vs. campaign
 * JSON report), and the two-artifact diff engine behind
 * `campaign compare`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.hh"
#include "harness/journal_index.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

std::string
tempPath(const char *name)
{
    const std::string path = testing::TempDir() + "pth_jidx_" + name;
    std::remove(path.c_str());
    return path;
}

/** A deterministic run record: every field derives from the index so
 * hand-computed expectations stay readable. */
RunResult
makeRun(std::size_t index, const std::string &machine,
        const std::string &defense, std::uint64_t seed,
        std::uint64_t flips, bool ok = true)
{
    RunResult r;
    r.index = index;
    r.label = "pt" + std::to_string(index);
    r.machine = machine;
    r.defense = defense;
    r.strategy = "pthammer";
    r.dramModel = "ddr3";
    r.seed = seed;
    r.ok = ok;
    if (!ok)
        r.error = "synthetic failure";
    r.flips = flips;
    r.flipped = flips > 0;
    r.escalated = flips > 2;
    r.attempts = static_cast<unsigned>(index) + 1;
    r.simSeconds = 1.5 * static_cast<double>(index + 1);
    r.report.flipped = r.flipped;
    r.report.timeToFirstFlipMinutes =
        r.flipped ? 0.5 * static_cast<double>(seed) : 0.0;
    r.metrics.emplace_back("idx", static_cast<double>(index));
    return r;
}

/** The six-run fixture the filter/group tests hand-verify:
 *   0: T420 none   seed=1 flips=0
 *   1: T420 none   seed=2 flips=3  (escalated)
 *   2: T420 trr    seed=3 flips=1
 *   3: X230 none   seed=4 flips=0  FAILED
 *   4: X230 trr    seed=5 flips=2
 *   5: X230 trr    seed=6 flips=4  (escalated) */
std::vector<RunResult>
fixtureRuns()
{
    return {
        makeRun(0, "Lenovo T420", "none", 1, 0),
        makeRun(1, "Lenovo T420", "none", 2, 3),
        makeRun(2, "Lenovo T420", "trr", 3, 1),
        makeRun(3, "Lenovo X230", "none", 4, 0, /*ok=*/false),
        makeRun(4, "Lenovo X230", "trr", 5, 2),
        makeRun(5, "Lenovo X230", "trr", 6, 4),
    };
}

void
writeJournal(const std::string &path,
             const std::vector<RunResult> &runs,
             std::uint64_t keyBase = 100)
{
    std::ofstream out(path, std::ios::trunc);
    for (const RunResult &r : runs)
        out << ResultStore::serialize(r, keyBase + r.index) << '\n';
}

TEST(RunAxisTest, NamesAndAliasesRoundTrip)
{
    const std::vector<std::pair<std::string, RunAxis>> cases = {
        {"label", RunAxis::Label},       {"machine", RunAxis::Machine},
        {"preset", RunAxis::Machine},    {"defense", RunAxis::Defense},
        {"strategy", RunAxis::Strategy}, {"seed", RunAxis::Seed},
        {"dram-model", RunAxis::DramModel},
        {"dram_model", RunAxis::DramModel},
        {"model", RunAxis::DramModel},
    };
    for (const auto &item : cases) {
        RunAxis axis = RunAxis::Label;
        EXPECT_TRUE(parseRunAxis(item.first, axis)) << item.first;
        EXPECT_EQ(axis, item.second) << item.first;
    }
    RunAxis axis = RunAxis::Seed;
    EXPECT_FALSE(parseRunAxis("bogus", axis));
    EXPECT_EQ(axis, RunAxis::Seed); // untouched on failure
    // Canonical names parse back to themselves.
    for (RunAxis a : {RunAxis::Label, RunAxis::Machine, RunAxis::Defense,
                      RunAxis::Strategy, RunAxis::Seed,
                      RunAxis::DramModel}) {
        RunAxis parsed;
        EXPECT_TRUE(parseRunAxis(runAxisName(a), parsed));
        EXPECT_EQ(parsed, a);
    }
}

TEST(RunAxisTest, AxisValueRendersSeedAndUnrecordedModel)
{
    RunResult run = makeRun(7, "Lenovo T420", "none", 42, 1);
    EXPECT_EQ(runAxisValue(run, RunAxis::Label), "pt7");
    EXPECT_EQ(runAxisValue(run, RunAxis::Machine), "Lenovo T420");
    EXPECT_EQ(runAxisValue(run, RunAxis::Seed), "42");
    EXPECT_EQ(runAxisValue(run, RunAxis::DramModel), "ddr3");
    run.dramModel.clear(); // pre-dram-model journals
    EXPECT_EQ(runAxisValue(run, RunAxis::DramModel), "unrecorded");
}

TEST(JournalIndexTest, ParseFilterAcceptsAxisEqualsValue)
{
    JournalIndex::Filter filter;
    std::string error;
    ASSERT_TRUE(JournalIndex::parseFilter("defense=none", filter,
                                          &error))
        << error;
    EXPECT_EQ(filter.axis, RunAxis::Defense);
    EXPECT_EQ(filter.value, "none");
    // Values may contain '=' (split at the first one) and spaces.
    ASSERT_TRUE(JournalIndex::parseFilter("machine=Lenovo T420",
                                          filter, &error));
    EXPECT_EQ(filter.value, "Lenovo T420");
    EXPECT_FALSE(JournalIndex::parseFilter("defense", filter, &error));
    EXPECT_FALSE(JournalIndex::parseFilter("bogus=1", filter, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JournalIndexTest, SelectAppliesFiltersAsConjunction)
{
    const std::string journal = tempPath("select.jsonl");
    writeJournal(journal, fixtureRuns());

    JournalIndex index;
    ASSERT_TRUE(index.addArtifact(journal));
    EXPECT_EQ(index.size(), 6u);
    EXPECT_EQ(index.stats().journals, 1u);
    EXPECT_EQ(index.stats().corruptLines, 0u);

    auto labels = [](const std::vector<const RunResult *> &runs) {
        std::vector<std::string> out;
        for (const RunResult *run : runs)
            out.push_back(run->label);
        return out;
    };

    // No filters: everything, ascending index.
    EXPECT_EQ(labels(index.select({})),
              (std::vector<std::string>{"pt0", "pt1", "pt2", "pt3",
                                        "pt4", "pt5"}));
    // One axis.
    EXPECT_EQ(labels(index.select({{RunAxis::Defense, "trr"}})),
              (std::vector<std::string>{"pt2", "pt4", "pt5"}));
    // AND of two axes.
    EXPECT_EQ(labels(index.select({{RunAxis::Defense, "trr"},
                                   {RunAxis::Machine, "Lenovo X230"}})),
              (std::vector<std::string>{"pt4", "pt5"}));
    // Seed matches its decimal rendering.
    EXPECT_EQ(labels(index.select({{RunAxis::Seed, "5"}})),
              (std::vector<std::string>{"pt4"}));
    // Contradiction selects nothing.
    EXPECT_TRUE(index
                    .select({{RunAxis::Defense, "none"},
                             {RunAxis::Defense, "trr"}})
                    .empty());
    std::remove(journal.c_str());
}

TEST(JournalIndexTest, GroupByMatchesHandComputedAggregates)
{
    const std::string journal = tempPath("group.jsonl");
    writeJournal(journal, fixtureRuns());
    JournalIndex index;
    ASSERT_TRUE(index.addArtifact(journal));

    const auto groups =
        JournalIndex::groupBy(index.select({}), RunAxis::Machine);
    ASSERT_EQ(groups.size(), 2u);

    // Lexicographic order: T420 before X230.
    EXPECT_EQ(groups[0].value, "Lenovo T420");
    EXPECT_EQ(groups[0].agg.runs, 3u);
    EXPECT_EQ(groups[0].agg.failedRuns, 0u);
    EXPECT_EQ(groups[0].agg.flippedRuns, 2u);   // pt1, pt2
    EXPECT_EQ(groups[0].agg.escalatedRuns, 1u); // pt1
    EXPECT_EQ(groups[0].agg.totalFlips, 4u);    // 0 + 3 + 1
    EXPECT_EQ(groups[0].agg.totalAttempts, 6u); // 1 + 2 + 3
    // Mean sim seconds over pt0..pt2 = 1.5 * (1+2+3) / 3.
    EXPECT_DOUBLE_EQ(groups[0].agg.simSeconds.mean(), 3.0);
    // Mean time-to-flip over flipped runs = 0.5*(2+3)/2.
    EXPECT_DOUBLE_EQ(groups[0].agg.timeToFlipMinutes.mean(), 1.25);

    EXPECT_EQ(groups[1].value, "Lenovo X230");
    EXPECT_EQ(groups[1].agg.runs, 3u);
    EXPECT_EQ(groups[1].agg.failedRuns, 1u);    // pt3
    EXPECT_EQ(groups[1].agg.flippedRuns, 2u);   // pt4, pt5
    EXPECT_EQ(groups[1].agg.escalatedRuns, 1u); // pt5
    EXPECT_EQ(groups[1].agg.totalFlips, 6u);    // failed pt3 excluded
    // Failed runs contribute to no completion-side stat.
    EXPECT_EQ(groups[1].agg.simSeconds.count(), 2u);

    // Group-by composes with select: trr-only, grouped by machine.
    const auto trr = JournalIndex::groupBy(
        index.select({{RunAxis::Defense, "trr"}}), RunAxis::Machine);
    ASSERT_EQ(trr.size(), 2u);
    EXPECT_EQ(trr[0].agg.runs, 1u);
    EXPECT_EQ(trr[1].agg.runs, 2u);
    EXPECT_EQ(trr[1].agg.totalFlips, 6u);

    // Seed groups sort numerically (2 before 10), not textually.
    const std::string seedJournal = tempPath("group_seed.jsonl");
    writeJournal(seedJournal, {makeRun(0, "m", "none", 10, 1),
                               makeRun(1, "m", "none", 2, 1)});
    JournalIndex seedIndex;
    ASSERT_TRUE(seedIndex.addArtifact(seedJournal));
    const auto seeds =
        JournalIndex::groupBy(seedIndex.select({}), RunAxis::Seed);
    ASSERT_EQ(seeds.size(), 2u);
    EXPECT_EQ(seeds[0].value, "2");
    EXPECT_EQ(seeds[1].value, "10");
    std::remove(journal.c_str());
    std::remove(seedJournal.c_str());
}

TEST(JournalIndexTest, MultiJournalFoldMatchesResultStoreMerge)
{
    // Two overlapping shard-era journals: the second supersedes runs
    // 1 and 2. Indexing them in order must answer exactly like
    // querying their ResultStore::merge.
    const std::string first = tempPath("fold_a.jsonl");
    const std::string second = tempPath("fold_b.jsonl");
    writeJournal(first, {makeRun(0, "m", "none", 1, 1),
                         makeRun(1, "m", "none", 2, 1),
                         makeRun(2, "m", "none", 3, 1)});
    RunResult newer1 = makeRun(1, "m", "trr", 20, 7);
    RunResult newer2 = makeRun(2, "m", "trr", 30, 0);
    writeJournal(second, {newer1, newer2}, /*keyBase=*/500);

    JournalIndex direct;
    ASSERT_TRUE(direct.addArtifact(first));
    ASSERT_TRUE(direct.addArtifact(second));
    EXPECT_EQ(direct.size(), 3u);
    EXPECT_EQ(direct.stats().entries, 5u);
    EXPECT_EQ(direct.stats().superseded, 2u);

    const std::string merged = tempPath("fold_merged.jsonl");
    ResultStore::MergeStats stats;
    ASSERT_TRUE(ResultStore::merge({first, second}, merged, &stats));
    EXPECT_EQ(stats.overwritten, 2u);
    JournalIndex viaMerge;
    ASSERT_TRUE(viaMerge.addArtifact(merged));

    const auto a = direct.select({});
    const auto b = viaMerge.select({});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i]->index, b[i]->index);
        EXPECT_EQ(a[i]->label, b[i]->label);
        EXPECT_EQ(a[i]->seed, b[i]->seed);
        EXPECT_EQ(direct.entries().at(a[i]->index).key,
                  viaMerge.entries().at(b[i]->index).key);
        EXPECT_EQ(a[i]->flips, b[i]->flips);
        EXPECT_EQ(a[i]->defense, b[i]->defense);
    }
    // The superseding entries won.
    EXPECT_EQ(a[1]->seed, 20u);
    EXPECT_EQ(a[1]->flips, 7u);
    EXPECT_EQ(a[2]->defense, "trr");
    std::remove(first.c_str());
    std::remove(second.c_str());
    std::remove(merged.c_str());
}

TEST(JournalIndexTest, DuplicatesWithinAJournalCountAsSuperseded)
{
    // A resumed campaign re-appends a re-executed run to the same
    // journal; the later line wins and counts as superseded, in the
    // index and in ResultStore::merge alike.
    const std::string first = tempPath("dup_a.jsonl");
    const std::string second = tempPath("dup_b.jsonl");
    writeJournal(first, {makeRun(0, "m", "none", 1, 1),
                         makeRun(1, "m", "none", 2, 1),
                         makeRun(0, "m", "trr", 3, 4)});
    writeJournal(second, {makeRun(1, "m", "trr", 4, 5),
                          makeRun(1, "m", "trr", 5, 6)});

    JournalIndex index;
    ASSERT_TRUE(index.addArtifact(first));
    EXPECT_EQ(index.size(), 2u);
    EXPECT_EQ(index.stats().entries, 3u);
    EXPECT_EQ(index.stats().superseded, 1u);
    ASSERT_TRUE(index.addArtifact(second));
    EXPECT_EQ(index.size(), 2u);
    EXPECT_EQ(index.stats().entries, 5u);
    EXPECT_EQ(index.stats().superseded, 3u);
    EXPECT_EQ(index.select({})[0]->seed, 3u);
    EXPECT_EQ(index.select({})[1]->seed, 5u);

    std::ostringstream merged;
    ResultStore::MergeStats stats;
    ASSERT_TRUE(ResultStore::merge({first, second}, merged, &stats));
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.overwritten, 3u);
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(JournalIndexTest, CorruptLinesAreSkippedAndCounted)
{
    const std::string journal = tempPath("corrupt.jsonl");
    {
        std::ofstream out(journal, std::ios::trunc);
        out << ResultStore::serialize(makeRun(0, "m", "none", 1, 1),
                                      100)
            << '\n';
        out << "{\"torn\": \n"; // mid-write kill artifact
        out << "not json at all\n";
        out << ResultStore::serialize(makeRun(1, "m", "none", 2, 2),
                                      101)
            << '\n';
        // Torn final line without newline: the snapshot-copy case.
        const std::string full =
            ResultStore::serialize(makeRun(2, "m", "none", 3, 3), 102);
        out << full.substr(0, full.size() / 2);
    }
    JournalIndex index;
    ASSERT_TRUE(index.addArtifact(journal));
    EXPECT_EQ(index.size(), 2u);
    EXPECT_EQ(index.stats().corruptLines, 3u);
    EXPECT_EQ(index.select({})[1]->label, "pt1");

    // An unreadable path indexes nothing and reports failure.
    JournalIndex missing;
    std::string error;
    EXPECT_FALSE(missing.addArtifact("/nonexistent/x.jsonl", &error));
    EXPECT_TRUE(missing.empty());
    EXPECT_NE(error.find("cannot read"), std::string::npos);
    std::remove(journal.c_str());
}

TEST(JournalIndexTest, ArtifactSniffingReadsReportsAndJournals)
{
    // Render a real campaign report and journal the same results; the
    // sniffing loader must classify each correctly and index the same
    // run facts from both.
    std::vector<RunResult> runs = fixtureRuns();
    const std::string report = tempPath("sniff.json");
    {
        std::ofstream out(report, std::ios::trunc);
        out << Campaign::toJson(runs);
    }
    const std::string journal = tempPath("sniff.jsonl");
    writeJournal(journal, runs);

    JournalIndex fromReport;
    JournalIndex fromJournal;
    std::string error;
    ASSERT_TRUE(fromReport.addArtifact(report, &error)) << error;
    ASSERT_TRUE(fromJournal.addArtifact(journal, &error)) << error;
    EXPECT_EQ(fromReport.stats().reports, 1u);
    EXPECT_EQ(fromReport.stats().journals, 0u);
    EXPECT_EQ(fromJournal.stats().journals, 1u);

    const auto a = fromReport.select({});
    const auto b = fromJournal.select({});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i]->label, b[i]->label);
        EXPECT_EQ(a[i]->machine, b[i]->machine);
        EXPECT_EQ(a[i]->ok, b[i]->ok);
        EXPECT_EQ(a[i]->flips, b[i]->flips);
        EXPECT_TRUE(sameReportValue(a[i]->simSeconds,
                                    b[i]->simSeconds));
        EXPECT_TRUE(
            sameReportValue(a[i]->report.timeToFirstFlipMinutes,
                            b[i]->report.timeToFirstFlipMinutes));
    }
    // Reports carry no spec keys, but both carry the dram model.
    EXPECT_EQ(fromReport.entries().at(0).key, 0u);
    EXPECT_EQ(runAxisValue(*a[0], RunAxis::DramModel), "ddr3");
    EXPECT_EQ(runAxisValue(*b[0], RunAxis::DramModel), "ddr3");

    // A JSON object without "runs" is neither artifact kind.
    const std::string bogus = tempPath("sniff_bogus.json");
    {
        std::ofstream out(bogus, std::ios::trunc);
        out << "{\"hello\": 1}\n";
    }
    JournalIndex broken;
    EXPECT_FALSE(broken.addArtifact(bogus, &error));
    EXPECT_FALSE(error.empty());
    std::remove(report.c_str());
    std::remove(journal.c_str());
    std::remove(bogus.c_str());
}

TEST(JournalIndexTest, MalformedReportRunRejectsTheReport)
{
    // A report is written whole, so a run whose integer is not a whole
    // decimal fitting its field fails the artifact: it is neither read
    // as 0 (an "index": -5 run would supersede run 0) nor saturated.
    const std::string text = Campaign::toJson(fixtureRuns());
    const std::string report = tempPath("mangled.json");
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"index\": 1,", "\"index\": -5,"},
             {"\"index\": 1,", "\"index\": 1.5,"},
             {"\"seed\": 2,", "\"seed\": 18446744073709551616,"},
             {"\"flips\": 3,", "\"flips\": 2.5,"},
             {"\"attempts\": 2,", "\"attempts\": 4294967296,"}}) {
        std::string mangled = text;
        const std::size_t at = mangled.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        mangled.replace(at, from.size(), to);
        std::ofstream(report, std::ios::trunc) << mangled;

        JournalIndex index;
        std::string error;
        EXPECT_FALSE(index.addArtifact(report, &error)) << to;
        EXPECT_NE(error.find("run 1 of the campaign report is"
                             " malformed"),
                  std::string::npos)
            << error;
        EXPECT_TRUE(index.empty()) << to;
        EXPECT_EQ(index.stats().reports, 0u) << to;
    }
    std::remove(report.c_str());
}

/** Diff fixture: pointers into locally-owned RunResults. */
std::vector<const RunResult *>
pointers(const std::vector<RunResult> &runs)
{
    std::vector<const RunResult *> out;
    for (const RunResult &r : runs)
        out.push_back(&r);
    return out;
}

TEST(RunDiffTest, ClassifiesEveryDeltaStatus)
{
    std::vector<RunResult> base = fixtureRuns();
    std::vector<RunResult> cur = fixtureRuns();

    cur[0].flips = 5; // pt0: 0 -> 5 flips, improvement = Changed
    cur[0].flipped = true;
    cur[0].report.flipped = true;
    cur[0].report.timeToFirstFlipMinutes = 0.5;
    cur[1].flips = 1; // pt1: 3 -> 1 flips = Regressed (fewer flips)
    cur[2].simSeconds *= 2.0; // pt2: slower beyond tolerance
    cur[3].ok = true;         // pt3: fixed = Changed
    cur[3].error.clear();
    cur[4].ok = false;        // pt4: now fails = Regressed
    cur[4].error = "boom";
    // pt5 removed from current; pt6 added.
    cur.erase(cur.begin() + 5);
    cur.push_back(makeRun(6, "Lenovo X230", "trr", 7, 1));

    const RunDiff diff = diffRuns(pointers(base), pointers(cur));

    EXPECT_EQ(diff.regressions, 3u); // pt1, pt2, pt4
    EXPECT_EQ(diff.changed, 2u);     // pt0, pt3
    EXPECT_EQ(diff.unchanged, 0u);
    EXPECT_EQ(diff.added, 1u);       // pt6
    EXPECT_EQ(diff.removed, 1u);     // pt5

    ASSERT_EQ(diff.deltas.size(), 7u);
    auto statusOf = [&](const std::string &name) {
        for (const RunDelta &delta : diff.deltas)
            if (delta.name == name)
                return delta.status;
        ADD_FAILURE() << "no delta named " << name;
        return RunDeltaStatus::Unchanged;
    };
    // Labels present on both sides are disambiguated "label#index"
    // (`campaign compare`'s long-standing matching rule); one-sided
    // labels stay bare.
    EXPECT_EQ(statusOf("pt0#0"), RunDeltaStatus::Changed);
    EXPECT_EQ(statusOf("pt1#1"), RunDeltaStatus::Regressed);
    EXPECT_EQ(statusOf("pt2#2"), RunDeltaStatus::Regressed);
    EXPECT_EQ(statusOf("pt3#3"), RunDeltaStatus::Changed);
    EXPECT_EQ(statusOf("pt4#4"), RunDeltaStatus::Regressed);
    EXPECT_EQ(statusOf("pt5"), RunDeltaStatus::Removed);
    EXPECT_EQ(statusOf("pt6"), RunDeltaStatus::Added);

    // The regression reasons are named.
    for (const RunDelta &delta : diff.deltas) {
        if (delta.name == "pt1#1") {
            EXPECT_NE(delta.detail.find("fewer flips"),
                      std::string::npos);
        } else if (delta.name == "pt2#2") {
            EXPECT_NE(delta.detail.find("slower"), std::string::npos);
        } else if (delta.name == "pt4#4") {
            EXPECT_NE(delta.detail.find("now fails"),
                      std::string::npos);
        }
    }

    // Identical sets: all unchanged, nothing else.
    const RunDiff same = diffRuns(pointers(base), pointers(base));
    EXPECT_EQ(same.regressions, 0u);
    EXPECT_EQ(same.changed, 0u);
    EXPECT_EQ(same.unchanged, base.size());
}

TEST(RunDiffTest, ToleranceGatesTheSlowerCriterion)
{
    std::vector<RunResult> base = {makeRun(0, "m", "none", 1, 1)};
    std::vector<RunResult> cur = {makeRun(0, "m", "none", 1, 1)};
    cur[0].simSeconds = base[0].simSeconds * 1.15; // +15%

    RunDiffOptions strict;
    strict.tolerancePct = 10.0;
    EXPECT_EQ(diffRuns(pointers(base), pointers(cur), strict).regressions,
              1u);
    RunDiffOptions loose;
    loose.tolerancePct = 20.0;
    const RunDiff ok = diffRuns(pointers(base), pointers(cur), loose);
    EXPECT_EQ(ok.regressions, 0u);
    EXPECT_EQ(ok.changed, 1u); // still different, just tolerated
}

TEST(RunDiffTest, DuplicatedLabelsAreDisambiguatedByIndex)
{
    // Two baseline runs share a label; matching must key on
    // "label#index" so each pairs with its own counterpart instead of
    // colliding.
    std::vector<RunResult> base = {makeRun(0, "m", "none", 1, 1),
                                   makeRun(1, "m", "none", 2, 2)};
    base[1].label = base[0].label = "dup";
    std::vector<RunResult> cur = base;
    cur[1].flips = 0; // only dup#1 regresses
    cur[1].flipped = false;
    cur[1].report.flipped = false;
    cur[1].report.timeToFirstFlipMinutes = 0.0;

    const RunDiff diff = diffRuns(pointers(base), pointers(cur));
    EXPECT_EQ(diff.regressions, 1u);
    EXPECT_EQ(diff.added, 0u);
    EXPECT_EQ(diff.removed, 0u);
    ASSERT_EQ(diff.deltas.size(), 2u);
    EXPECT_EQ(diff.deltas[0].name, "dup#0");
    EXPECT_EQ(diff.deltas[1].name, "dup#1");
    EXPECT_EQ(diff.deltas[0].status, RunDeltaStatus::Unchanged);
    EXPECT_EQ(diff.deltas[1].status, RunDeltaStatus::Regressed);
}

} // namespace
} // namespace pth
