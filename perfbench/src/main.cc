// perfbench: the benchmark's own binary. perfbench/run.py drives it; each
// subcommand is one process of a benchmark run (see perfbench/README.md).
#include <cstdio>
#include <string>

#include "subcommands.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  const hosr::util::Flags flags = hosr::util::Flags::Parse(argc, argv);
  const std::string command =
      flags.positional().empty() ? "" : flags.positional().front();
  if (command == "gen-data") return perfbench::GenData(flags);
  if (command == "gen-snapshot") return perfbench::GenSnapshot(flags);
  if (command == "train") return perfbench::Train(flags);
  if (command == "load") return perfbench::Load(flags);
  if (command == "trace") return perfbench::Trace(flags);
  std::fprintf(stderr,
               "usage: perfbench gen-data|gen-snapshot|train|load|trace "
               "[--flag=value ...]\n");
  return 2;
}
