#include "services/spooler.h"

namespace proxy::services {

using spoolwire::CountResponse;
using spoolwire::IdResponse;
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
  rpc::RegisterTyped<SubmitRequest, IdResponse>(
      *dispatch, spoolwire::kSubmit,
      [impl](SubmitRequest, const rpc::CallContext&) {
        return impl->Enqueue(1).map(
            [](std::uint64_t id) { return IdResponse{id}; });
      });
  rpc::RegisterTyped<SubmitManyRequest, IdResponse>(
      *dispatch, spoolwire::kSubmitMany,
      [impl](SubmitManyRequest req, const rpc::CallContext&) {
        return impl->Enqueue(req.jobs.size()).map(
            [](std::uint64_t first) { return IdResponse{first}; });
      });
  rpc::RegisterTyped<rpc::Void, CountResponse>(
      *dispatch, spoolwire::kCompleted,
      [impl](rpc::Void, const rpc::CallContext&) -> Result<CountResponse> {
        return CountResponse{impl->completed()};
      });
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
  SubmitRequest req{std::move(job)};
  Result<IdResponse> resp =
      co_await Call<IdResponse>(spoolwire::kSubmit, std::move(req));
  if (!resp.ok()) co_return resp.status();
  co_return resp->id;
}

sim::Co<Result<std::uint64_t>> SpoolerStub::SubmitMany(
    std::vector<SpoolJob> jobs) {
  SubmitManyRequest req{std::move(jobs)};
  Result<IdResponse> resp =
      co_await Call<IdResponse>(spoolwire::kSubmitMany, std::move(req));
  if (!resp.ok()) co_return resp.status();
  co_return resp->id;
}

sim::Co<Result<std::uint64_t>> SpoolerStub::CompletedCount() {
  Result<CountResponse> resp =
      co_await Call<CountResponse>(spoolwire::kCompleted, rpc::Void{});
  if (!resp.ok()) co_return resp.status();
  co_return resp->count;
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
  Result<IdResponse> resp =
      co_await Call<IdResponse>(spoolwire::kSubmitMany, std::move(req));
  co_return resp.status();
}

sim::Co<Result<std::uint64_t>> SpoolerBatchProxy::Submit(SpoolJob job) {
  const std::uint64_t id = local_seq_++;
  (void)batcher_.Add(std::move(job));
  co_return id;
}

sim::Co<Result<std::uint64_t>> SpoolerBatchProxy::SubmitMany(
    std::vector<SpoolJob> jobs) {
  const std::uint64_t first = local_seq_;
  local_seq_ += jobs.size();
  for (auto& job : jobs) (void)batcher_.Add(std::move(job));
  co_return first;
}

sim::Co<Result<std::uint64_t>> SpoolerBatchProxy::CompletedCount() {
  const Status flushed = co_await Flush();
  if (!flushed.ok()) co_return flushed;
  Result<CountResponse> resp =
      co_await Call<CountResponse>(spoolwire::kCompleted, rpc::Void{});
  if (!resp.ok()) co_return resp.status();
  co_return resp->count;
}

}  // namespace proxy::services
