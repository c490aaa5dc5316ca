#include "machine/machine.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace mvp
{

Cycle
MachineConfig::opLatency(ir::Opcode op) const
{
    using ir::Opcode;
    switch (op) {
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::Copy:
        return latInt;
      case Opcode::IMul:
        return latIntMul;
      case Opcode::IDiv:
        return latIntDiv;
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FMadd:
        return latFp;
      case Opcode::FDiv:
        return latFpDiv;
      case Opcode::Load:
        return latCacheHit;
      case Opcode::Store:
        return latStore;
    }
    mvp_panic("unknown Opcode");
}

int
MachineConfig::fusPerCluster(ir::FuType type) const
{
    switch (type) {
      case ir::FuType::Int: return intFusPerCluster;
      case ir::FuType::Fp: return fpFusPerCluster;
      case ir::FuType::Mem: return memFusPerCluster;
    }
    mvp_panic("unknown FuType");
}

void
MachineConfig::validate() const
{
    if (nClusters < 1)
        mvp_fatal("machine '", name, "': nClusters must be >= 1");
    if (intFusPerCluster < 1 || fpFusPerCluster < 1 || memFusPerCluster < 1)
        mvp_fatal("machine '", name, "': every cluster needs at least one "
                  "FU of each class");
    if (regsPerCluster < 1)
        mvp_fatal("machine '", name, "': regsPerCluster must be >= 1");
    if (nClusters > 1 && !unboundedRegBuses && nRegBuses < 1)
        mvp_fatal("machine '", name, "': clustered machines need at least "
                  "one register bus");
    if (!unboundedMemBuses && nMemBuses < 1)
        mvp_fatal("machine '", name, "': need at least one memory bus");
    if (regBusLatency < 1 || memBusLatency < 1)
        mvp_fatal("machine '", name, "': bus latencies must be >= 1");
    // Geometry before any arithmetic on it: a zero line size or
    // associativity would divide by zero below, and a cache without a
    // single set breaks every set-index computation downstream.
    if (cacheLineBytes < 1 || cacheAssoc < 1)
        mvp_fatal("machine '", name, "': cache line size and "
                  "associativity must be >= 1");
    if (totalCacheBytes < 1)
        mvp_fatal("machine '", name, "': cache capacity must be >= 1");
    if (clusterCacheGeom().numSets() < 1)
        mvp_fatal("machine '", name, "': per-cluster cache holds no set "
                  "of ", cacheAssoc, " x ", cacheLineBytes, "B lines");
    if (totalCacheBytes % nClusters != 0)
        mvp_fatal("machine '", name, "': cache capacity not divisible by "
                  "cluster count");
    const std::int64_t per_cluster = totalCacheBytes / nClusters;
    if (per_cluster % (static_cast<std::int64_t>(cacheLineBytes) *
                       cacheAssoc) != 0)
        mvp_fatal("machine '", name, "': per-cluster cache not divisible "
                  "into lines/ways");
    if (mshrEntries < 1)
        mvp_fatal("machine '", name, "': mshrEntries must be >= 1");
    if (latCacheHit < 1 || latMainMemory < 1)
        mvp_fatal("machine '", name, "': memory latencies must be >= 1");
    if (std::min({latInt, latIntMul, latIntDiv, latFp, latFpDiv,
                  latStore}) < 1)
        mvp_fatal("machine '", name, "': operation latencies must be >= 1");
}

std::string
MachineConfig::summary() const
{
    std::ostringstream os;
    os << name << ": " << nClusters << " cluster(s) x (" << intFusPerCluster
       << " INT + " << fpFusPerCluster << " FP + " << memFusPerCluster
       << " MEM), " << regsPerCluster << " regs/cluster, ";
    if (nClusters > 1) {
        if (unboundedRegBuses)
            os << "unbounded reg buses @" << regBusLatency << "cy, ";
        else
            os << nRegBuses << " reg bus(es) @" << regBusLatency << "cy, ";
    }
    if (unboundedMemBuses)
        os << "unbounded mem buses @" << memBusLatency << "cy, ";
    else
        os << nMemBuses << " mem bus(es) @" << memBusLatency << "cy, ";
    os << totalCacheBytes / 1024 << "KB L1 total ("
       << cacheBytesPerCluster() / 1024.0 << "KB/cluster, "
       << cacheLineBytes << "B lines, " << (cacheAssoc == 1
                                                ? std::string("direct-mapped")
                                                : std::to_string(cacheAssoc) +
                                                      "-way")
       << ")";
    return os.str();
}

} // namespace mvp
