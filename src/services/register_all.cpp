#include "services/register_all.h"

#include "core/export.h"
#include "core/factory.h"
#include "services/counter.h"
#include "services/file.h"
#include "services/kv.h"
#include "services/lock.h"
#include "services/replicated_kv.h"
#include "services/shard_router.h"
#include "services/spooler.h"

namespace proxy::services {

void RegisterAllServices() {
  // The one installation table: (interface, protocol) -> proxy class, and
  // the migratable objects' server factories. Filled once per process.
  static const bool registered = [] {
    (void)core::RegisterProxy<IKeyValue, KvStub>(1);
    (void)core::RegisterProxy<IKeyValue, KvCachingProxy>(2);
    (void)core::RegisterProxy<IKeyValue, KvWriteBackProxy>(3);
    (void)core::RegisterProxy<IKeyValue, KvFailoverProxy>(4);
    (void)core::RegisterProxy<IKeyValue, KvShardRouterProxy>(5);
    (void)core::RegisterProxy<IFile, FileStub>(1);
    (void)core::RegisterProxy<IFile, FileCachingProxy>(2);
    (void)core::RegisterProxy<IFile, FileBatchProxy>(3);
    (void)core::RegisterProxy<ICounter, CounterStub>(1);
    (void)core::RegisterProxy<ICounter, CounterDsmProxy>(2);
    (void)core::RegisterProxy<ISpooler, SpoolerStub>(1);
    (void)core::RegisterProxy<ISpooler, SpoolerBatchProxy>(2);
    (void)core::RegisterProxy<ILockService, LockStub>(1);
    (void)core::RegisterServerObject<IKeyValue>(MakeKvDispatch);
    (void)core::RegisterServerObject<IFile>(MakeFileDispatch);
    (void)core::RegisterServerObject<ICounter>(MakeCounterDispatch);
    return true;
  }();
  (void)registered;
}

}  // namespace proxy::services
