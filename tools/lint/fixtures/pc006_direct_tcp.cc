// Known-bad fixture: constructing the TCP transport outside src/net/tcp*
// and tools/pc_party/ must trigger PC006 — everything else reaches TCP
// through run_parties(PartyTransport::kTcp) or the pc_party daemon.
#include "net/tcp_channel.h"

void connect_to_servers(pcl::TcpPartyWiring wiring) {
  pcl::TcpChannel chan(std::move(wiring));  // BAD: direct TcpChannel
  chan.connect();
  pcl::TcpSocket raw;                    // BAD: direct TcpSocket
  auto* listener = new pcl::TcpListener; // BAD: direct TcpListener
  delete listener;
}
