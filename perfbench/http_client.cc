#include "http_client.h"

#include <cstdlib>

namespace perfbench {

bool Response::HasDoneLine() const {
  if (body.empty() || body.back() != '\n') return false;
  size_t start = body.rfind('\n', body.size() - 2);
  start = start == std::string::npos ? 0 : start + 1;
  return body.compare(start, 12, "{\"done\":true") == 0;
}

HttpClient::HttpClient(uint16_t port) {
  auto sock = banks::server::net::Socket::ConnectLoopback(port);
  if (sock.ok()) sock_ = std::move(sock).value();
}

bool HttpClient::Fill() {
  char buf[16384];
  long n = sock_.Recv(buf, sizeof(buf));
  if (n <= 0) return false;
  carry_.append(buf, static_cast<size_t>(n));
  return true;
}

bool HttpClient::ReadHead(Response* out, bool* chunked,
                          size_t* content_length) {
  size_t head_end;
  while ((head_end = carry_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) return false;
  }
  std::string_view head(carry_.data(), head_end);
  size_t sp = head.find(' ');
  if (sp == std::string_view::npos) return false;
  out->status = std::atoi(carry_.c_str() + sp + 1);
  *chunked = head.find("Transfer-Encoding: chunked") != std::string_view::npos;
  size_t cl = head.find("Content-Length: ");
  *content_length =
      cl == std::string_view::npos
          ? 0
          : std::strtoul(carry_.c_str() + cl + 16, nullptr, 10);
  carry_.erase(0, head_end + 4);
  return true;
}

bool HttpClient::Post(std::string_view target, std::string_view body,
                      Response* out) {
  out->status = 0;
  out->body.clear();
  std::string request;
  request.reserve(body.size() + 96);
  request += "POST ";
  request += target;
  request += " HTTP/1.1\r\nHost: localhost\r\nContent-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  if (!sock_.SendAll(request)) return false;

  int status = 0;
  bool chunked = false;
  size_t content_length = 0;
  if (!ReadHead(out, &chunked, &content_length)) return false;
  status = out->status;
  out->status = 0;  // until the body is complete
  bool have_first = false;
  if (!chunked) {
    while (carry_.size() < content_length) {
      if (!Fill()) return false;
    }
    out->body.assign(carry_, 0, content_length);
    carry_.erase(0, content_length);
  } else {
    for (;;) {
      size_t line_end;
      while ((line_end = carry_.find("\r\n")) == std::string::npos) {
        if (!Fill()) return false;
      }
      size_t size = std::strtoul(carry_.c_str(), nullptr, 16);
      if (size == 0) {
        while (carry_.size() < line_end + 4) {
          if (!Fill()) return false;
        }
        carry_.erase(0, line_end + 4);
        break;
      }
      while (carry_.size() < line_end + 2 + size + 2) {
        if (!Fill()) return false;
      }
      out->body.append(carry_, line_end + 2, size);
      carry_.erase(0, line_end + 2 + size + 2);
      if (!have_first && out->body.find('\n') != std::string::npos) {
        out->first_line = Clock::now();
        have_first = true;
      }
    }
  }
  out->end = Clock::now();
  if (!have_first) out->first_line = out->end;
  out->bytes = out->body.size();
  out->status = status;
  return true;
}

}  // namespace perfbench
