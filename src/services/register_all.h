// One-call registration of every service's proxy and server factories.
#pragma once

namespace proxy::services {

/// Installs every service's proxies and server-object factories. Call at
/// program start (examples, tests, benches); later calls do nothing.
void RegisterAllServices();

}  // namespace proxy::services
