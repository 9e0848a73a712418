// Spooler service — a print/job queue.
//
// Submissions are small and frequent: exactly the traffic shape where a
// batching proxy pays off (experiment F6). Two proxy protocols:
//
//   protocol 1 — SpoolerStub        one RPC per job
//   protocol 2 — SpoolerBatchProxy  jobs coalesced into SubmitMany
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/batcher.h"
#include "core/export.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "rpc/stub.h"
#include "sim/task.h"

namespace proxy::services {

struct SpoolJob {
  std::string name;
  Bytes payload;
  PROXY_SERDE_FIELDS(name, payload)
};

class ISpooler {
 public:
  static constexpr std::string_view kInterfaceName = "proxy.services.Spooler";

  virtual ~ISpooler() = default;

  /// Queues a job; returns its id.
  virtual sim::Co<Result<std::uint64_t>> Submit(SpoolJob job) = 0;
  /// Queues many jobs; returns the first id of the contiguous id range.
  virtual sim::Co<Result<std::uint64_t>> SubmitMany(
      std::vector<SpoolJob> jobs) = 0;
  /// Jobs fully processed so far.
  virtual sim::Co<Result<std::uint64_t>> CompletedCount() = 0;
};

namespace spoolwire {

struct SubmitRequest {
  SpoolJob job;
  PROXY_SERDE_FIELDS(job)
};
struct SubmitManyRequest {
  std::vector<SpoolJob> jobs;
  PROXY_SERDE_FIELDS(jobs)
};

/// Submit and SubmitMany answer the first job id.
inline constexpr rpc::Method<SubmitRequest, std::uint64_t> kSubmit{1};
inline constexpr rpc::Method<SubmitManyRequest, std::uint64_t> kSubmitMany{2};
/// Answers the completed count.
inline constexpr rpc::Method<rpc::Void, std::uint64_t> kCompleted{3};

}  // namespace spoolwire

class SpoolerService : public ISpooler {
 public:
  /// `per_job_cost` models the device time each job consumes.
  SpoolerService(sim::Scheduler& scheduler,
                 SimDuration per_job_cost = Microseconds(200))
      : scheduler_(&scheduler), per_job_cost_(per_job_cost) {}

  sim::Co<Result<std::uint64_t>> Submit(SpoolJob) override {
    co_return Enqueue(1);
  }
  sim::Co<Result<std::uint64_t>> SubmitMany(
      std::vector<SpoolJob> jobs) override {
    co_return Enqueue(jobs.size());
  }
  sim::Co<Result<std::uint64_t>> CompletedCount() override {
    co_return completed();
  }

  /// The synchronous core: numbers `count` jobs and sets the device on
  /// them. Returns the first job's id; an empty batch is an error.
  Result<std::uint64_t> Enqueue(std::uint64_t count);

  [[nodiscard]] std::uint64_t submitted() const noexcept { return next_id_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

 private:
  sim::Co<void> ProcessJobs(std::uint64_t count);

  sim::Scheduler* scheduler_;
  SimDuration per_job_cost_;
  std::uint64_t next_id_ = 0;
  std::uint64_t completed_ = 0;
};

std::shared_ptr<rpc::Dispatch> MakeSpoolerDispatch(
    std::shared_ptr<SpoolerService> impl);

struct SpoolerExport {
  std::shared_ptr<SpoolerService> impl;
  core::ServiceBinding binding;
};
Result<SpoolerExport> ExportSpoolerService(core::Context& context,
                                           std::uint32_t protocol = 1);

class SpoolerStub : public ISpooler, public core::ProxyBase {
 public:
  SpoolerStub(core::Context& context, core::ServiceBinding binding)
      : core::ProxyBase(context, std::move(binding)) {}

  sim::Co<Result<std::uint64_t>> Submit(SpoolJob job) override;
  sim::Co<Result<std::uint64_t>> SubmitMany(
      std::vector<SpoolJob> jobs) override;
  sim::Co<Result<std::uint64_t>> CompletedCount() override;
};

struct SpoolerBatchParams {
  std::size_t max_batch = 32;
  SimDuration flush_window = Milliseconds(2);
};

/// Batching proxy: Submit() acknowledges a job id locally and ships jobs
/// in groups. Ids are assigned pessimistically (the proxy reserves a
/// range on first contact) — returned ids are proxy-local sequence
/// numbers; CompletedCount runs behind the write barrier, so callers
/// observe their jobs.
class SpoolerBatchProxy : public ISpooler, public core::ProxyBase {
 public:
  SpoolerBatchProxy(core::Context& context, core::ServiceBinding binding,
                    SpoolerBatchParams params = {});

  sim::Co<Result<std::uint64_t>> Submit(SpoolJob job) override;
  sim::Co<Result<std::uint64_t>> SubmitMany(
      std::vector<SpoolJob> jobs) override;
  sim::Co<Result<std::uint64_t>> CompletedCount() override;

  sim::Co<Status> Flush() { return batcher_.Drain(); }

  [[nodiscard]] const core::BatcherStats& batch_stats() const noexcept {
    return batcher_.stats();
  }

 private:
  sim::Co<Status> FlushBatch(std::vector<SpoolJob> batch);

  SpoolerBatchParams params_;
  std::uint64_t local_seq_ = 0;
  core::Batcher<SpoolJob> batcher_;
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

}  // namespace proxy::services
