#include "services/spooler.h"

namespace proxy::services {

using spoolwire::SubmitManyRequest;
using spoolwire::SubmitRequest;

sim::Co<void> SpoolerService::ProcessJobs(std::uint64_t count) {
  // The device works through jobs one by one over simulated time.
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await sim::SleepFor(*scheduler_, per_job_cost_);
    completed_++;
  }
}

Result<std::uint64_t> SpoolerService::Enqueue(std::uint64_t count) {
  if (count == 0) return InvalidArgumentError("empty job batch");
  const std::uint64_t first = next_id_;
  next_id_ += count;
  sim::Detach(*scheduler_, ProcessJobs(count));
  return first;
}

std::shared_ptr<rpc::Dispatch> MakeSpoolerDispatch(
    std::shared_ptr<SpoolerService> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(*dispatch, spoolwire::kSubmit,
                     [impl](SubmitRequest) { return impl->Enqueue(1); });
  rpc::RegisterTyped(*dispatch, spoolwire::kSubmitMany,
                     [impl](SubmitManyRequest req) {
                       return impl->Enqueue(req.jobs.size());
                     });
  rpc::RegisterTyped(*dispatch, spoolwire::kCompleted,
                     [impl](rpc::Void) { return impl->completed(); });
  return dispatch;
}

Result<SpoolerExport> ExportSpoolerService(core::Context& context,
                                           std::uint32_t protocol) {
  auto impl = std::make_shared<SpoolerService>(context.scheduler());
  auto dispatch = MakeSpoolerDispatch(impl);
  PROXY_ASSIGN_OR_RETURN(
      auto exported,
      core::ServiceExport<ISpooler>::Create(context, impl, dispatch,
                                            protocol));
  return SpoolerExport{std::move(impl), exported.binding()};
}

sim::Co<Result<std::uint64_t>> SpoolerStub::Submit(SpoolJob job) {
  return Call(spoolwire::kSubmit, SubmitRequest{std::move(job)});
}

sim::Co<Result<std::uint64_t>> SpoolerStub::SubmitMany(
    std::vector<SpoolJob> jobs) {
  return Call(spoolwire::kSubmitMany, SubmitManyRequest{std::move(jobs)});
}

sim::Co<Result<std::uint64_t>> SpoolerStub::CompletedCount() {
  return Call(spoolwire::kCompleted, rpc::Void{});
}

SpoolerBatchProxy::SpoolerBatchProxy(core::Context& context,
                                     core::ServiceBinding binding,
                                     SpoolerBatchParams params)
    : core::ProxyBase(context, std::move(binding)),
      params_(params),
      batcher_(
          context.scheduler(),
          [this](std::vector<SpoolJob> batch) {
            return FlushBatch(std::move(batch));
          },
          params.max_batch, params.flush_window),
      metric_scope_(context.metrics()) {
  batcher_.BindMetrics(metric_scope_, "svc.spool.batch");
}

sim::Co<Status> SpoolerBatchProxy::FlushBatch(std::vector<SpoolJob> batch) {
  SubmitManyRequest req{std::move(batch)};
  Result<std::uint64_t> first =
      co_await Call(spoolwire::kSubmitMany, std::move(req));
  co_return first.status();
}

sim::Co<Result<std::uint64_t>> SpoolerBatchProxy::Submit(SpoolJob job) {
  const std::uint64_t id = local_seq_++;
  batcher_.Add(std::move(job));
  co_return id;
}

sim::Co<Result<std::uint64_t>> SpoolerBatchProxy::SubmitMany(
    std::vector<SpoolJob> jobs) {
  const std::uint64_t first = local_seq_;
  local_seq_ += jobs.size();
  for (auto& job : jobs) batcher_.Add(std::move(job));
  co_return first;
}

// CompletedCount must count this proxy's own buffered jobs, so it runs
// behind the write barrier.
sim::Co<Result<std::uint64_t>> SpoolerBatchProxy::CompletedCount() {
  return batcher_.After(Call(spoolwire::kCompleted, rpc::Void{}));
}

}  // namespace proxy::services
