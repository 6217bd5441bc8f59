#include "harness/journal_index.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/table.hh"

namespace pth
{

const char *
runAxisName(RunAxis axis)
{
    switch (axis) {
    case RunAxis::Label: return "label";
    case RunAxis::Machine: return "machine";
    case RunAxis::Defense: return "defense";
    case RunAxis::Strategy: return "strategy";
    case RunAxis::Seed: return "seed";
    case RunAxis::DramModel: return "dram-model";
    }
    return "?";
}

bool
parseRunAxis(const std::string &text, RunAxis &out)
{
    if (text == "label") {
        out = RunAxis::Label;
    } else if (text == "machine" || text == "preset") {
        out = RunAxis::Machine;
    } else if (text == "defense") {
        out = RunAxis::Defense;
    } else if (text == "strategy") {
        out = RunAxis::Strategy;
    } else if (text == "seed") {
        out = RunAxis::Seed;
    } else if (text == "dram-model" || text == "dram_model" ||
               text == "model") {
        out = RunAxis::DramModel;
    } else {
        return false;
    }
    return true;
}

std::string
runAxisValue(const RunResult &run, RunAxis axis)
{
    switch (axis) {
    case RunAxis::Label: return run.label;
    case RunAxis::Machine: return run.machine;
    case RunAxis::Defense: return run.defense;
    case RunAxis::Strategy: return run.strategy;
    case RunAxis::Seed:
        return strfmt("%llu", static_cast<unsigned long long>(run.seed));
    case RunAxis::DramModel:
        return run.dramModel.empty() ? "unrecorded" : run.dramModel;
    }
    return std::string();
}

namespace
{

/** Parse one object of a report's "runs" array (campaign toJson)
 * into the RunResult fields a report carries. False when it is not a
 * run: no label or index, or an index, seed, flips or attempts that
 * is not a whole decimal fitting its field. */
bool
runFromReportObject(const JsonValue &obj, RunResult &run)
{
    if (!obj.isObject())
        return false;
    const JsonValue *label = obj.find("label");
    const JsonValue *index = obj.find("index");
    if (!label || !label->isString() || !index ||
        !index->asUnsigned(run.index))
        return false;
    const JsonValue *seed = obj.find("seed");
    const JsonValue *flips = obj.find("flips");
    const JsonValue *attempts = obj.find("attempts");
    if ((seed && !seed->asUnsigned(run.seed)) ||
        (flips && !flips->asUnsigned(run.flips)) ||
        (attempts && !attempts->asUnsigned(run.attempts)))
        return false;
    run.label = label->asString();
    if (const JsonValue *v = obj.find("machine"))
        run.machine = v->asString();
    if (const JsonValue *v = obj.find("defense"))
        run.defense = v->asString();
    if (const JsonValue *v = obj.find("strategy"))
        run.strategy = v->asString();
    if (const JsonValue *v = obj.find("dram_model"))
        run.dramModel = v->asString();
    if (const JsonValue *v = obj.find("ok"))
        run.ok = v->asBool(true);
    if (const JsonValue *v = obj.find("flipped"))
        run.flipped = v->asBool();
    if (const JsonValue *v = obj.find("escalated"))
        run.escalated = v->asBool();
    if (const JsonValue *v = obj.find("sim_seconds"))
        run.simSeconds = v->asDouble();
    if (const JsonValue *v = obj.find("time_to_flip_minutes"))
        run.report.timeToFirstFlipMinutes = v->asDouble();
    if (const JsonValue *metrics = obj.find("metrics"))
        for (const auto &member : metrics->members())
            run.metrics.emplace_back(member.first,
                                     member.second.asDouble());
    return true;
}

} // namespace

void
JournalIndex::insert(ResultStore::Entry entry)
{
    const std::size_t index = entry.result.index;
    if (!byIndex_.insert_or_assign(index, std::move(entry)).second)
        ++stats_.superseded;
}

bool
JournalIndex::addArtifact(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot read " + path;
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    JsonValue doc;
    if (JsonValue::parse(buffer.str(), doc) && doc.isObject() &&
        doc.find("runs")) {
        // A report is written whole, so a run that does not parse
        // is a broken artifact, not a torn line: reject all of it.
        const std::vector<JsonValue> &runs = doc.find("runs")->items();
        std::vector<ResultStore::Entry> parsed(runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i)
            if (!runFromReportObject(runs[i], parsed[i].result)) {
                if (error)
                    *error = strfmt("%s: run %zu of the campaign report"
                                    " is malformed",
                                    path.c_str(), i);
                return false;
            }
        if (parsed.empty()) {
            if (error)
                *error = path + ": campaign report contains no runs";
            return false;
        }
        ++stats_.reports;
        stats_.entries += parsed.size();
        for (ResultStore::Entry &entry : parsed)
            insert(std::move(entry));
        return true;
    }

    // Not a report: journal lines.
    ++stats_.journals;
    ResultStore::LoadStats read;
    auto entries = ResultStore::load(path, &read);
    stats_.entries += read.parsed;
    stats_.corruptLines += read.corruptLines;
    // Lines load() folded away were superseded within the file.
    stats_.superseded += read.parsed - entries.size();
    for (auto &item : entries)
        insert(std::move(item.second));
    if (read.parsed == 0) {
        if (error)
            *error =
                path + ": neither a campaign report nor a journal";
        return false;
    }
    return true;
}

bool
JournalIndex::parseFilter(const std::string &text, Filter &out,
                          std::string *error)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0) {
        if (error)
            *error = "bad filter '" + text + "' (use AXIS=VALUE)";
        return false;
    }
    const std::string axis = text.substr(0, eq);
    if (!parseRunAxis(axis, out.axis)) {
        if (error)
            *error = "unknown axis '" + axis +
                     "' (use label, machine, defense, strategy,"
                     " seed or dram-model)";
        return false;
    }
    out.value = text.substr(eq + 1);
    return true;
}

std::vector<const RunResult *>
JournalIndex::select(const std::vector<Filter> &filters) const
{
    std::vector<const RunResult *> out;
    for (const auto &item : byIndex_) {
        const RunResult &run = item.second.result;
        bool match = true;
        for (const Filter &f : filters)
            if (runAxisValue(run, f.axis) != f.value) {
                match = false;
                break;
            }
        if (match)
            out.push_back(&run);
    }
    return out;
}

std::vector<JournalIndex::Group>
JournalIndex::groupBy(const std::vector<const RunResult *> &runs,
                      RunAxis axis)
{
    std::map<std::string, CampaignAggregate> groups;
    for (const RunResult *run : runs)
        groups[runAxisValue(*run, axis)].add(*run);

    std::vector<Group> out;
    out.reserve(groups.size());
    for (auto &item : groups)
        out.push_back(Group{item.first, item.second});
    if (axis == RunAxis::Seed)
        std::sort(out.begin(), out.end(),
                  [](const Group &a, const Group &b) {
                      return std::strtoull(a.value.c_str(), nullptr,
                                           10) <
                             std::strtoull(b.value.c_str(), nullptr,
                                           10);
                  });
    return out;
}

Table
JournalIndex::groupTable(const std::vector<Group> &groups,
                         RunAxis axis)
{
    Table table({runAxisName(axis), "Runs", "Failed", "Flipped",
                 "Escalated", "Flips", "Mean sim s",
                 "Mean time-to-flip"});
    for (const Group &group : groups) {
        const CampaignAggregate &agg = group.agg;
        table.addRow(
            {group.value,
             strfmt("%llu", static_cast<unsigned long long>(agg.runs)),
             strfmt("%llu",
                    static_cast<unsigned long long>(agg.failedRuns)),
             strfmt("%llu",
                    static_cast<unsigned long long>(agg.flippedRuns)),
             strfmt("%llu", static_cast<unsigned long long>(
                                agg.escalatedRuns)),
             strfmt("%llu",
                    static_cast<unsigned long long>(agg.totalFlips)),
             strfmt("%.4g", agg.simSeconds.mean()),
             agg.timeToFlipMinutes.count()
                 ? strfmt("%.2f m", agg.timeToFlipMinutes.mean())
                 : "-"});
    }
    return table;
}

Table
JournalIndex::runTable(const std::vector<const RunResult *> &runs)
{
    Table table({"Run", "Machine", "Defense", "Strategy", "Dram",
                 "Seed", "Ok", "Flips", "Escalated", "Sim s"});
    for (const RunResult *run : runs)
        table.addRow(
            {run->label, run->machine, run->defense, run->strategy,
             runAxisValue(*run, RunAxis::DramModel),
             strfmt("%llu", static_cast<unsigned long long>(run->seed)),
             run->ok ? "yes" : "FAILED",
             strfmt("%llu",
                    static_cast<unsigned long long>(run->flips)),
             run->escalated ? "YES" : "no",
             strfmt("%.4g", run->simSeconds)});
    return table;
}

bool
sameReportValue(double a, double b)
{
    if (a == b)
        return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= 1e-8 * scale;
}

namespace
{

bool
sameMetrics(const std::vector<std::pair<std::string, double>> &a,
            const std::vector<std::pair<std::string, double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].first != b[i].first ||
            !sameReportValue(a[i].second, b[i].second))
            return false;
    return true;
}

/** Labels appearing more than once across both run sets. */
std::set<std::string>
duplicatedLabels(const std::vector<const RunResult *> &a,
                 const std::vector<const RunResult *> &b)
{
    std::map<std::string, unsigned> uses;
    for (const RunResult *run : a)
        ++uses[run->label];
    for (const RunResult *run : b)
        ++uses[run->label];
    std::set<std::string> duplicated;
    for (const auto &item : uses)
        if (item.second > 1)
            duplicated.insert(item.first);
    return duplicated;
}

/**
 * Key runs by label, appending the index for labels duplicated in
 * either artifact — both sides must disambiguate the same way or a
 * label that repeats on one side only would never match the other.
 */
std::map<std::string, const RunResult *>
keyByLabel(const std::vector<const RunResult *> &runs,
           const std::set<std::string> &duplicated)
{
    std::map<std::string, const RunResult *> keyed;
    for (const RunResult *run : runs) {
        std::string key =
            duplicated.count(run->label)
                ? run->label + strfmt("#%zu", run->index)
                : run->label;
        keyed[key] = run;
    }
    return keyed;
}

std::string
deltaCell(double base, double current)
{
    if (sameReportValue(base, current))
        return "=";
    const double delta = current - base;
    if (base != 0)
        return strfmt("%+.3g (%+.1f%%)", delta,
                      100.0 * delta / base);
    return strfmt("%+.3g", delta);
}

} // namespace

RunDiff
diffRuns(const std::vector<const RunResult *> &baseline,
         const std::vector<const RunResult *> &current,
         const RunDiffOptions &options)
{
    RunDiff diff;
    const std::set<std::string> duplicated =
        duplicatedLabels(baseline, current);
    auto baseByLabel = keyByLabel(baseline, duplicated);
    auto curByLabel = keyByLabel(current, duplicated);

    for (const auto &item : baseByLabel) {
        const RunResult &b = *item.second;
        RunDelta delta;
        delta.name = item.first;
        delta.base = &b;

        auto match = curByLabel.find(item.first);
        if (match == curByLabel.end()) {
            ++diff.removed;
            delta.status = RunDeltaStatus::Removed;
            diff.deltas.push_back(std::move(delta));
            continue;
        }
        const RunResult &c = *match->second;
        delta.current = &c;

        const bool worseOk = b.ok && !c.ok;
        const bool worseFlip = b.flipped && !c.flipped;
        const bool worseEsc = b.escalated && !c.escalated;
        const bool fewerFlips = c.flips < b.flips;
        const bool slower =
            b.simSeconds > 0 &&
            c.simSeconds >
                b.simSeconds * (1.0 + options.tolerancePct / 100.0);

        const bool identical =
            b.ok == c.ok && b.flipped == c.flipped &&
            b.escalated == c.escalated && b.flips == c.flips &&
            b.attempts == c.attempts &&
            sameReportValue(b.simSeconds, c.simSeconds) &&
            sameReportValue(b.report.timeToFirstFlipMinutes,
                            c.report.timeToFirstFlipMinutes) &&
            sameMetrics(b.metrics, c.metrics);

        if (worseOk || worseFlip || worseEsc || fewerFlips || slower) {
            ++diff.regressions;
            delta.status = RunDeltaStatus::Regressed;
            delta.detail = worseOk       ? "now fails"
                           : worseFlip   ? "no flip"
                           : worseEsc    ? "no escalation"
                           : fewerFlips  ? "fewer flips"
                                         : "slower";
        } else if (identical) {
            ++diff.unchanged;
            delta.status = RunDeltaStatus::Unchanged;
        } else {
            ++diff.changed;
            delta.status = RunDeltaStatus::Changed;
        }
        diff.deltas.push_back(std::move(delta));
    }

    for (const auto &item : curByLabel) {
        if (baseByLabel.count(item.first))
            continue;
        ++diff.added;
        RunDelta delta;
        delta.name = item.first;
        delta.current = item.second;
        delta.status = RunDeltaStatus::Added;
        diff.deltas.push_back(std::move(delta));
    }
    return diff;
}

Table
diffTable(const RunDiff &diff, bool showAll)
{
    Table table({"Run", "Flips (base -> cur)", "Sim seconds delta",
                 "Time-to-flip delta", "Status"});
    for (const RunDelta &delta : diff.deltas) {
        switch (delta.status) {
        case RunDeltaStatus::Removed:
            table.addRow({delta.name, "-", "-", "-", "REMOVED"});
            continue;
        case RunDeltaStatus::Added:
            table.addRow({delta.name, "-", "-", "-", "ADDED"});
            continue;
        case RunDeltaStatus::Unchanged:
            if (!showAll)
                continue;
            break;
        default:
            break;
        }
        const RunResult &b = *delta.base;
        const RunResult &c = *delta.current;
        std::string status;
        switch (delta.status) {
        case RunDeltaStatus::Regressed:
            status = "REGRESSION (" + delta.detail + ")";
            break;
        case RunDeltaStatus::Changed:
            status = "changed";
            break;
        default:
            status = "unchanged";
            break;
        }
        table.addRow(
            {delta.name,
             strfmt("%llu -> %llu",
                    static_cast<unsigned long long>(b.flips),
                    static_cast<unsigned long long>(c.flips)),
             deltaCell(b.simSeconds, c.simSeconds),
             deltaCell(b.report.timeToFirstFlipMinutes,
                       c.report.timeToFirstFlipMinutes),
             status});
    }
    return table;
}

} // namespace pth
