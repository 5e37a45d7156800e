#include "serve/scheduler.hh"

#include <exception>
#include <utility>
#include <vector>

namespace killi::serve
{

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "unknown";
}

Json
SchedulerStats::toJson() const
{
    Json doc = Json::object();
    doc.set("queued", Json::number(std::uint64_t(queued)));
    doc.set("running", Json::number(std::uint64_t(running)));
    doc.set("max_queue", Json::number(std::uint64_t(maxQueue)));
    doc.set("peak_queued", Json::number(std::uint64_t(peakQueued)));
    doc.set("submitted", Json::number(submitted));
    doc.set("rejected", Json::number(rejected));
    doc.set("done", Json::number(done));
    doc.set("failed", Json::number(failed));
    doc.set("cancelled", Json::number(cancelled));
    return doc;
}

JobScheduler::JobScheduler(unsigned threads, std::size_t maxQueue,
                           metrics::MetricsRegistry *reg)
    : maxQueue(std::max<std::size_t>(1, maxQueue)),
      pool(threads == 0 ? ThreadPool::defaultThreads() : threads)
{
    if (!reg)
        return;
    // Depth/running/peak are pulled at scrape time from the
    // scheduler's own accounting (no double bookkeeping); the
    // callbacks take this->mtx, which is safe because the scheduler
    // never touches the registry after construction.
    reg->gaugeFn("kserved_queue_depth", "Jobs waiting in the ready queue",
                 {}, [this] {
                     std::unique_lock<std::mutex> lock(mtx);
                     return double(ready.size());
                 });
    reg->gaugeFn("kserved_jobs_running",
                 "Jobs currently executing on scheduler workers", {},
                 [this] {
                     std::unique_lock<std::mutex> lock(mtx);
                     return double(runningCount);
                 });
    reg->gaugeFn("kserved_queue_peak_depth",
                 "High-water mark of the ready queue", {}, [this] {
                     std::unique_lock<std::mutex> lock(mtx);
                     return double(peakQueued);
                 });
    reg->counterFn("kserved_admissions_total",
                   "Jobs admitted to the ready queue", {}, [this] {
                       std::unique_lock<std::mutex> lock(mtx);
                       return submittedCount;
                   });
    reg->counterFn("kserved_rejections_total",
                   "Submits refused by admission control (queue full "
                   "or draining)",
                   {}, [this] {
                       std::unique_lock<std::mutex> lock(mtx);
                       return rejectedCount;
                   });
    reg->counterFn("kserved_cancellations_total",
                   "Jobs that ended cancelled (client cancel, "
                   "connection loss, or drain)",
                   {}, [this] {
                       std::unique_lock<std::mutex> lock(mtx);
                       return cancelledCount;
                   });
    static const char *kPrio[3] = {"low", "normal", "high"};
    for (int k = 0; k < 3; ++k) {
        waitHist[k] = &reg->histogram(
            "kserved_queue_wait_seconds",
            "Admission-to-execution wait, by priority band",
            {{"priority", kPrio[k]}});
    }
}

JobScheduler::~JobScheduler()
{
    drain();
}

bool
JobScheduler::submit(std::uint64_t id, int priority, JobWork work,
                     JobFinish onFinish, std::string *errCode)
{
    {
        std::unique_lock<std::mutex> lock(mtx);
        if (drainRequested) {
            ++rejectedCount;
            if (errCode)
                *errCode = "draining";
            return false;
        }
        if (ready.size() >= maxQueue) {
            ++rejectedCount;
            if (errCode)
                *errCode = "queue_full";
            return false;
        }
        auto entry = std::make_shared<Entry>();
        entry->id = id;
        entry->work = std::move(work);
        entry->onFinish = std::move(onFinish);
        entry->queueKey = {-priority, nextSeq++};
        entry->priority = priority;
        entry->enqueued = std::chrono::steady_clock::now();
        ready.emplace(entry->queueKey, entry);
        active.emplace(id, entry);
        ++submittedCount;
        peakQueued = std::max(peakQueued, ready.size());
    }
    // One pool task per admitted job; each task runs whatever is the
    // best *currently* queued job, which is how FIFO workers yield
    // priority order.
    pool.submit([this] { runNext(); });
    return true;
}

void
JobScheduler::runNext()
{
    std::shared_ptr<Entry> entry;
    {
        std::unique_lock<std::mutex> lock(mtx);
        if (ready.empty())
            return; // job was cancelled or drained away
        entry = ready.begin()->second;
        ready.erase(ready.begin());
        entry->state = JobState::Running;
        ++runningCount;
    }

    const int band = entry->priority < 0 ? 0
                     : entry->priority > 0 ? 2
                                           : 1;
    if (waitHist[band]) {
        waitHist[band]->observe(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - entry->enqueued)
                .count());
    }

    std::string result;
    std::string error;
    JobState final = JobState::Done;
    try {
        result = entry->work(entry->cancel);
    } catch (const std::exception &e) {
        final = JobState::Failed;
        error = e.what();
    } catch (...) {
        final = JobState::Failed;
        error = "unknown exception";
    }
    if (entry->cancel.cancelled()) {
        // The body yielded to a cancel request; whatever partial
        // result it returned is not a served result.
        final = JobState::Cancelled;
        error = "cancelled";
        result.clear();
    }

    // Record the terminal state BEFORE notifying: a client that sends
    // status or cancel right after reading its result must see the
    // job finished, not running.
    {
        std::unique_lock<std::mutex> lock(mtx);
        finishLocked(lock, entry, final, result, error);
        --runningCount;
        ++notifying;
    }

    // Account the job idle only AFTER notifying: once idle() reports
    // true, every terminal notification has already been delivered
    // (the server's drain loop relies on this to flush the last
    // result frame before exiting).
    if (entry->onFinish)
        entry->onFinish(entry->id, final, result, error);

    {
        std::unique_lock<std::mutex> lock(mtx);
        --notifying;
        if (idleLocked())
            idleCv.notify_all();
    }
}

void
JobScheduler::finishLocked(std::unique_lock<std::mutex> &,
                           const std::shared_ptr<Entry> &entry,
                           JobState state, const std::string &,
                           const std::string &)
{
    entry->state = state;
    switch (state) {
      case JobState::Done: ++doneCount; break;
      case JobState::Failed: ++failedCount; break;
      case JobState::Cancelled: ++cancelledCount; break;
      default: break;
    }
    active.erase(entry->id);
    finished.emplace(entry->id, state);
    while (finished.size() > kFinishedHistory)
        finished.erase(finished.begin());
}

bool
JobScheduler::cancel(std::uint64_t id)
{
    std::shared_ptr<Entry> toNotify;
    {
        std::unique_lock<std::mutex> lock(mtx);
        const auto it = active.find(id);
        if (it == active.end())
            return false;
        const auto entry = it->second;
        if (entry->state == JobState::Running) {
            entry->cancel.cancel();
            return true; // reported Cancelled when the body yields
        }
        ready.erase(entry->queueKey);
        finishLocked(lock, entry, JobState::Cancelled, "",
                     "cancelled");
        if (idleLocked())
            idleCv.notify_all();
        toNotify = entry;
    }
    if (toNotify->onFinish)
        toNotify->onFinish(id, JobState::Cancelled, "", "cancelled");
    return true;
}

JobState
JobScheduler::state(std::uint64_t id, bool *found) const
{
    std::unique_lock<std::mutex> lock(mtx);
    const auto it = active.find(id);
    if (it != active.end()) {
        if (found)
            *found = true;
        return it->second->state;
    }
    const auto fin = finished.find(id);
    if (fin != finished.end()) {
        if (found)
            *found = true;
        return fin->second;
    }
    if (found)
        *found = false;
    return JobState::Failed;
}

void
JobScheduler::beginDrain()
{
    std::vector<std::shared_ptr<Entry>> dropped;
    {
        std::unique_lock<std::mutex> lock(mtx);
        if (drainRequested)
            return;
        drainRequested = true;
        for (auto &[key, entry] : ready) {
            finishLocked(lock, entry, JobState::Cancelled, "",
                         "draining");
            dropped.push_back(entry);
        }
        ready.clear();
        if (idleLocked())
            idleCv.notify_all();
    }
    for (const auto &entry : dropped) {
        if (entry->onFinish) {
            entry->onFinish(entry->id, JobState::Cancelled, "",
                            "draining");
        }
    }
}

bool
JobScheduler::draining() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return drainRequested;
}

bool
JobScheduler::idle() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return idleLocked();
}

void
JobScheduler::drain()
{
    beginDrain();
    std::unique_lock<std::mutex> lock(mtx);
    idleCv.wait(lock, [this] { return idleLocked(); });
}

SchedulerStats
JobScheduler::stats() const
{
    std::unique_lock<std::mutex> lock(mtx);
    SchedulerStats s;
    s.queued = ready.size();
    s.running = runningCount;
    s.maxQueue = maxQueue;
    s.peakQueued = peakQueued;
    s.submitted = submittedCount;
    s.rejected = rejectedCount;
    s.done = doneCount;
    s.failed = failedCount;
    s.cancelled = cancelledCount;
    return s;
}

} // namespace killi::serve
