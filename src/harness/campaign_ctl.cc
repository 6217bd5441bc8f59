#include "harness/campaign_ctl.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"

namespace pth
{

// ---------------------------------------------------------------- //
// Manifest                                                         //
// ---------------------------------------------------------------- //

namespace
{

/** Strict key check: manifests are config, and a typoed key that
 * silently does nothing is how a 100-shard campaign runs with the
 * wrong arguments. */
bool
checkKeys(const JsonValue &obj,
          const std::vector<std::string> &allowed,
          const std::string &where, std::string &error)
{
    for (const auto &member : obj.members()) {
        if (std::find(allowed.begin(), allowed.end(),
                      member.first) != allowed.end())
            continue;
        error = where + ": unknown key \"" + member.first + "\"";
        return false;
    }
    return true;
}

bool
parseCampaign(const JsonValue &obj, std::size_t position,
              ManifestCampaign &out, std::string &error)
{
    const std::string where = strfmt("campaign #%zu", position);
    if (!obj.isObject()) {
        error = where + ": not an object";
        return false;
    }
    if (!checkKeys(obj,
                   {"name", "program", "args", "shards", "journal",
                    "report"},
                   where, error))
        return false;

    const JsonValue *name = obj.find("name");
    if (!name || !name->isString() || name->asString().empty()) {
        error = where + ": missing or empty \"name\"";
        return false;
    }
    out.name = name->asString();
    if (out.name.find('/') != std::string::npos ||
        out.name.find_first_of(" \t\n") != std::string::npos) {
        // The name labels dispatch-log lines ("name/shard") and
        // derives artifact paths, so it cannot hold separators.
        error = where + ": name \"" + out.name +
                "\" may not contain '/' or whitespace";
        return false;
    }

    const JsonValue *program = obj.find("program");
    if (!program || !program->isString() ||
        program->asString().empty()) {
        error = where + " (" + out.name +
                "): missing or empty \"program\"";
        return false;
    }
    out.program = program->asString();

    if (const JsonValue *args = obj.find("args")) {
        if (!args->isArray()) {
            error = where + " (" + out.name +
                    "): \"args\" is not an array";
            return false;
        }
        for (const JsonValue &arg : args->items()) {
            if (!arg.isString()) {
                error = where + " (" + out.name +
                        "): \"args\" holds a non-string";
                return false;
            }
            out.args.push_back(arg.asString());
        }
    }

    if (const JsonValue *shards = obj.find("shards")) {
        if (!shards->isNumber() || shards->asU64() == 0 ||
            shards->asU64() > std::numeric_limits<unsigned>::max() ||
            shards->asDouble() !=
                static_cast<double>(shards->asU64())) {
            error = where + " (" + out.name +
                    "): \"shards\" must be a positive integer";
            return false;
        }
        out.shards = static_cast<unsigned>(shards->asU64());
    }

    if (const JsonValue *journal = obj.find("journal")) {
        if (!journal->isString()) {
            error = where + " (" + out.name +
                    "): \"journal\" is not a string";
            return false;
        }
        out.journal = journal->asString();
    }
    if (const JsonValue *report = obj.find("report")) {
        if (!report->isString()) {
            error = where + " (" + out.name +
                    "): \"report\" is not a string";
            return false;
        }
        out.report = report->asString();
    }
    return true;
}

} // namespace

bool
Manifest::parse(const std::string &text, Manifest &out,
                std::string &error)
{
    JsonValue doc;
    if (!JsonValue::parse(text, doc) || !doc.isObject()) {
        error = "manifest is not a JSON object";
        return false;
    }
    if (!checkKeys(doc, {"campaigns"}, "manifest", error))
        return false;
    const JsonValue *campaigns = doc.find("campaigns");
    if (!campaigns || !campaigns->isArray() ||
        campaigns->items().empty()) {
        error = "manifest has no campaigns";
        return false;
    }

    Manifest parsed;
    for (std::size_t i = 0; i < campaigns->items().size(); ++i) {
        ManifestCampaign campaign;
        if (!parseCampaign(campaigns->items()[i], i, campaign, error))
            return false;
        for (const ManifestCampaign &seen : parsed.campaigns)
            if (seen.name == campaign.name) {
                error = "duplicate campaign name \"" + campaign.name +
                        "\"";
                return false;
            }
        parsed.campaigns.push_back(std::move(campaign));
    }
    out = std::move(parsed);
    return true;
}

bool
Manifest::load(const std::string &path, Manifest &out,
               std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!Manifest::parse(buffer.str(), out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- //
// Orchestrator                                                     //
// ---------------------------------------------------------------- //

/** One schedulable unit: a shard slice of a campaign, or the render
 * pass that turns a merged journal into the final report. */
struct CampaignCtl::Task
{
    enum class Kind { Shard, Render };

    Kind kind = Kind::Shard;
    std::size_t campaign = 0;
    unsigned shard = 0;
    std::string label; //!< "name/shard" or "name/render" (logs)

    /** The task's one subprocess lineage: every respawn resumes this
     * journal and appends to this log. */
    std::string journal;
    std::string log;
    unsigned spawns = 0;
    bool ok = false;
    std::string error; //!< death reason when the task failed
};

namespace
{

/** Where shard `shard` of the campaign journaling to `journal`
 * checkpoints. */
std::string
shardJournalPath(const std::string &journal, unsigned shard)
{
    return journal + strfmt(".shard%u", shard);
}

/** Human-readable decode of a waitpid status. */
std::string
describeWaitStatus(int status)
{
    if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == 127)
            return "exec failed (exit 127)";
        return strfmt("exited with status %d", code);
    }
    if (WIFSIGNALED(status))
        return strfmt("killed by signal %d (%s)", WTERMSIG(status),
                      strsignal(WTERMSIG(status)));
    return strfmt("unknown wait status 0x%x", status);
}

/** Last maxBytes of a file (worker-log postmortems). */
std::string
fileTail(const std::string &path, std::size_t maxBytes = 2048)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return std::string();
    const std::streamoff size = in.tellg();
    const std::streamoff start =
        size > static_cast<std::streamoff>(maxBytes)
            ? size - static_cast<std::streamoff>(maxBytes)
            : 0;
    in.seekg(start);
    std::string tail(static_cast<std::size_t>(size - start), '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
    tail.resize(static_cast<std::size_t>(in.gcount()));
    return tail;
}

/**
 * Seed each shard journal of the campaign journaling to `journal`
 * with that journal's entries for its residue class, so a campaign
 * previously completed (or partially completed) under another
 * dispatch mode is not recomputed by the workers. Idempotent: an
 * entry the shard journal already holds under the same key is not
 * re-appended, and workers still re-validate every seeded entry by
 * spec key. A missing journal seeds nothing.
 */
void
seedShardJournals(const std::string &journal, unsigned shards)
{
    auto prior = ResultStore::load(journal);
    std::vector<std::unique_ptr<ResultStore>> seeds(shards);
    std::vector<std::map<std::size_t, ResultStore::Entry>> present(
        shards);
    std::vector<char> presentLoaded(shards, 0);
    for (auto &item : prior) {
        const unsigned s = static_cast<unsigned>(item.first % shards);
        const std::string shardPath = shardJournalPath(journal, s);
        if (!presentLoaded[s]) {
            present[s] = ResultStore::load(shardPath);
            presentLoaded[s] = 1;
        }
        auto held = present[s].find(item.first);
        if (held != present[s].end() &&
            held->second.key == item.second.key)
            continue;
        if (!seeds[s])
            seeds[s] = std::make_unique<ResultStore>(
                shardPath, /*truncate=*/false);
        seeds[s]->record(item.second.result, item.second.key);
    }
}

/** fork/exec one worker, stdout+stderr captured to logPath
 * (truncated on a task's first attempt, appended on respawns so the
 * log shows every attempt). Returns the pid or -1. */
long
spawnWorker(const std::vector<std::string> &args,
            const std::string &logPath, bool firstAttempt)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid > 0)
        return pid;

    const int fd = ::open(logPath.c_str(),
                          O_WRONLY | O_CREAT |
                              (firstAttempt ? O_TRUNC : O_APPEND),
                          0644);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO)
            ::close(fd);
    }
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(args[0].c_str(), argv.data());
    // Failed-exec path of a just-forked child: single thread by
    // construction.
    std::fprintf(stderr, "campaign_ctl: cannot exec %s: %s\n",
                 args[0].c_str(),
                 std::strerror(errno)); // NOLINT(concurrency-mt-unsafe)
    ::_exit(127);
}

} // namespace

CampaignCtl::CampaignCtl(Manifest manifest, CampaignCtlOptions options)
    : manifest_(std::move(manifest)), options_(std::move(options))
{
}

CampaignCtl::~CampaignCtl() = default;

void
CampaignCtl::logLine(const std::string &line) const
{
    if (!options_.log)
        return;
    *options_.log << "[ctl] " << line << '\n';
    options_.log->flush();
}

long
CampaignCtl::launch(std::size_t taskId, bool fresh)
{
    Task &task = tasks_[taskId];
    const ManifestCampaign &campaign =
        manifest_.campaigns[task.campaign];

    // --threads=1 ahead of the campaign's args: process-level
    // parallelism replaces thread-level, unless the args ask for
    // more (the last --threads wins).
    std::vector<std::string> args = {campaign.program, "--threads=1"};
    args.insert(args.end(), campaign.args.begin(),
                campaign.args.end());
    if (task.kind == Task::Kind::Shard)
        args.push_back(
            strfmt("--shard=%u/%u", task.shard, campaign.shards));
    args.push_back("--journal=" + task.journal);
    if (task.kind == Task::Kind::Render)
        args.push_back("--json=" + campaign.report);
    if (fresh)
        args.push_back("--fresh");

    const long pid = spawnWorker(args, task.log,
                                 /*firstAttempt=*/task.spawns == 0);
    if (pid < 0)
        return -1;
    ++task.spawns;
    ++outcomes_[task.campaign].spawns;
    live_.push_back({pid, taskId});
    return pid;
}

bool
CampaignCtl::startTask(std::size_t taskId)
{
    Task &task = tasks_[taskId];
    const ManifestCampaign &campaign =
        manifest_.campaigns[task.campaign];

    if (task.kind == Task::Kind::Shard) {
        task.journal = shardJournalPath(campaign.journal, task.shard);
        task.log = task.journal + ".log";
        // A fresh suite must not resume stale shard journals even if
        // the worker dies before its own --fresh truncation runs.
        if (options_.fresh)
            std::remove(task.journal.c_str());
    } else {
        task.journal = campaign.journal;
        task.log = task.journal + ".render.log";
    }

    const long pid =
        launch(taskId, options_.fresh && task.kind == Task::Kind::Shard);
    if (pid < 0) {
        // The orchestrator is single-threaded (fork-based fan-out).
        task.error = strfmt(
            "fork failed: %s",
            std::strerror(errno)); // NOLINT(concurrency-mt-unsafe)
        return false;
    }
    logLine("spawn " + task.label);

    if (task.kind == Task::Kind::Shard)
        for (const auto &inject : options_.injectKills)
            if (inject.first == campaign.name &&
                inject.second == task.shard) {
                // Deterministic worker-crash injection: the first
                // attempt dies before it can finish, the respawn
                // path has to recover it.
                ::kill(static_cast<pid_t>(pid), SIGKILL);
                logLine("inject-kill " + task.label);
                break;
            }
    return true;
}

void
CampaignCtl::finishCampaign(std::size_t campaignIdx)
{
    const ManifestCampaign &campaign =
        manifest_.campaigns[campaignIdx];
    CampaignOutcome &outcome = outcomes_[campaignIdx];

    // Old campaign journal first (resume), then the shard journals —
    // last wins, so fresher shard results supersede. A shard that
    // died for good still contributes its journal, so the runs it
    // checkpointed survive.
    std::vector<std::string> inputs;
    if (!options_.fresh)
        inputs.push_back(campaign.journal);
    for (const Task &task : tasks_) {
        if (task.campaign != campaignIdx ||
            task.kind != Task::Kind::Shard)
            continue;
        inputs.push_back(task.journal);
        outcome.deadShards += !task.ok;
    }

    std::string mergeError;
    const std::string staging = campaign.journal + ".merging";
    if (!ResultStore::merge(inputs, staging, &outcome.mergeStats,
                            &mergeError) ||
        std::rename(staging.c_str(), campaign.journal.c_str()) != 0) {
        std::remove(staging.c_str());
        if (outcome.error.empty())
            outcome.error = mergeError.empty()
                                ? "cannot finalize merged journal " +
                                      campaign.journal
                                : mergeError;
        logLine("campaign " + campaign.name +
                " FAILED: " + outcome.error);
        return;
    }
    logLine(strfmt("merge %s: %zu run(s) from %u input(s)%s",
                   campaign.name.c_str(), outcome.mergeStats.entries,
                   outcome.mergeStats.inputs,
                   outcome.mergeStats.corruptLines
                       ? strfmt(", %zu corrupt line(s) skipped",
                                outcome.mergeStats.corruptLines)
                           .c_str()
                       : ""));

    if (outcome.deadShards) {
        logLine("campaign " + campaign.name +
                " FAILED: " + outcome.error);
        return;
    }
    if (campaign.report.empty()) {
        outcome.ok = true;
        return;
    }

    // The report pass re-invokes the bench against the merged
    // journal: every run is served from its checkpoint, so the
    // rendered report is byte-identical to a serial run's.
    Task render;
    render.kind = Task::Kind::Render;
    render.campaign = campaignIdx;
    render.label = campaign.name + "/render";
    tasks_.push_back(std::move(render));
    pending_.push_back(tasks_.size() - 1);
}

unsigned
CampaignCtl::run()
{
    const unsigned poolWidth = resolveWorkers(options_.workers);

    outcomes_.clear();
    tasks_.clear();
    pending_.clear();
    live_.clear();
    nextPending_ = 0;
    shardsLeft_.assign(manifest_.campaigns.size(), 0);

    // Build the queue in manifest order — the deterministic dispatch
    // sequence the log exposes and the tests pin.
    for (std::size_t ci = 0; ci < manifest_.campaigns.size(); ++ci) {
        const ManifestCampaign &campaign = manifest_.campaigns[ci];
        if (campaign.journal.empty())
            fatal("campaign %s names no journal", campaign.name.c_str());
        CampaignOutcome outcome;
        outcome.name = campaign.name;
        outcome.journal = campaign.journal;
        outcome.report = campaign.report;
        outcomes_.push_back(std::move(outcome));

        if (options_.fresh)
            std::remove(campaign.journal.c_str());
        else
            seedShardJournals(campaign.journal, campaign.shards);

        shardsLeft_[ci] = campaign.shards;
        for (unsigned s = 0; s < campaign.shards; ++s) {
            Task task;
            task.kind = Task::Kind::Shard;
            task.campaign = ci;
            task.shard = s;
            task.label = campaign.name + strfmt("/%u", s);
            tasks_.push_back(std::move(task));
            pending_.push_back(tasks_.size() - 1);
        }
    }

    while (true) {
        while (live_.size() < poolWidth &&
               nextPending_ < pending_.size()) {
            const std::size_t taskId = pending_[nextPending_++];
            if (!startTask(taskId)) {
                // Could not even fork: the task fails permanently.
                const Task &task = tasks_[taskId];
                CampaignOutcome &outcome = outcomes_[task.campaign];
                if (outcome.error.empty())
                    outcome.error = task.label + ": " + task.error;
                logLine("dead " + task.label + ": " + task.error);
                if (task.kind == Task::Kind::Shard &&
                    --shardsLeft_[task.campaign] == 0)
                    finishCampaign(task.campaign);
            }
        }
        if (live_.empty())
            break;

        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        if (pid < 0) {
            if (errno == EINTR)
                continue;
            break; // no children left we know about
        }
        auto it = live_.begin();
        for (; it != live_.end(); ++it)
            if (it->first == pid)
                break;
        if (it == live_.end())
            continue;
        const std::size_t taskId = it->second;
        live_.erase(it);

        Task &task = tasks_[taskId];
        const ManifestCampaign &campaign =
            manifest_.campaigns[task.campaign];
        CampaignOutcome &outcome = outcomes_[task.campaign];

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            task.ok = true;
            logLine("exit " + task.label + " ok");
            if (task.kind == Task::Kind::Shard) {
                if (--shardsLeft_[task.campaign] == 0)
                    finishCampaign(task.campaign);
            } else {
                outcome.ok = outcome.error.empty();
                logLine("report " + campaign.name + ": " +
                        outcome.report);
            }
            continue;
        }

        // Death. A render pass that EXITS nonzero did its work and
        // found failing runs (or could not write the report) — a
        // deterministic verdict a respawn would only repeat.
        if (task.kind == Task::Kind::Render && WIFEXITED(status)) {
            if (outcome.error.empty())
                outcome.error = strfmt(
                    "report render exited with status %d (log: %s)",
                    WEXITSTATUS(status), task.log.c_str());
            logLine("campaign " + campaign.name +
                    " FAILED: " + outcome.error);
            continue;
        }

        // Respawn without --fresh: the replacement resumes the task's
        // journal and repeats only the runs the dead attempt had not
        // checkpointed.
        if (task.spawns <= kMaxRespawns &&
            launch(taskId, /*fresh=*/false) >= 0) {
            logLine(strfmt("respawn %s attempt %u", task.label.c_str(),
                           task.spawns));
            continue;
        }

        // The task is out of lives.
        task.error = describeWaitStatus(status);
        logLine("dead " + task.label + ": " + task.error);
        if (outcome.error.empty()) {
            outcome.error = task.label + " died after " +
                            strfmt("%u attempt(s): ", task.spawns) +
                            task.error;
            const std::string tail = fileTail(task.log);
            if (!tail.empty())
                outcome.error += "; log tail: " + tail;
        }
        if (task.kind == Task::Kind::Shard) {
            if (--shardsLeft_[task.campaign] == 0)
                finishCampaign(task.campaign);
        } else {
            logLine("campaign " + campaign.name +
                    " FAILED: " + outcome.error);
        }
    }

    unsigned failures = 0;
    for (CampaignOutcome &outcome : outcomes_) {
        if (!outcome.ok && outcome.error.empty())
            outcome.error = "campaign did not complete";
        failures += !outcome.ok;
    }
    return failures;
}

} // namespace pth
