// Blocking keep-alive HTTP/1.1 client for the benchmark, over the repo's
// Socket wrapper (socket syscalls stay confined to src/server/net/).
// It stamps the arrival of the first NDJSON line and of the end of the
// response, so time to first answer is measured at the client.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "server/net/socket.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Response {
  int status = 0;  // 0 = transport failure
  std::string body;
  Clock::time_point first_line;  // first complete NDJSON line (or body end)
  Clock::time_point end;         // last byte of the response
  size_t bytes = 0;              // body bytes

  /// A /query stream is complete when its last line is the summary.
  bool HasDoneLine() const;
};

class HttpClient {
 public:
  explicit HttpClient(uint16_t port);
  bool connected() const { return sock_.valid(); }

  /// POSTs `body` to `target` and reads the whole response into `*out`.
  /// Returns false on a transport error (the connection is then dead).
  bool Post(std::string_view target, std::string_view body, Response* out);

 private:
  bool Fill();
  bool ReadHead(Response* out, bool* chunked, size_t* content_length);

  banks::server::net::Socket sock_;
  std::string carry_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
