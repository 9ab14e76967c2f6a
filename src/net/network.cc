#include "src/net/network.h"

namespace pmig::net {

kernel::Kernel* Network::FindHost(std::string_view name) {
  for (kernel::Kernel* host : hosts_) {
    if (host->hostname() == name) return host;
  }
  return nullptr;
}

SpawnService* Network::FindSpawnService(std::string_view hostname) {
  auto it = spawn_services_.find(hostname);
  return it == spawn_services_.end() ? nullptr : it->second;
}

}  // namespace pmig::net
