// Fixture: PC006 must flag protocol code that builds its own transport.
#include <chrono>

namespace pcl {
class Network {
 public:
  Network() = default;
  explicit Network(std::chrono::milliseconds) {}
};

void forbidden_local_transport() {
  Network net;
  Network deadline(std::chrono::milliseconds(10));
  Network* heap = new Network();
  delete heap;
  (void)net;
  (void)deadline;
}

// Taking an existing transport by reference is allowed — only construction
// is the runner's privilege.
void allowed_reference(Network& net, const Network& other) {
  (void)net;
  (void)other;
}
}  // namespace pcl
