#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/string_util.h"

namespace spinner::graph_io {

namespace {

/// Size of the one buffer a text reader fills per fread.
constexpr size_t kReadBlockBytes = size_t{1} << 20;

bool IsCommentOrBlank(std::string_view line) {
  line = Trim(line);
  return line.empty() || line[0] == '#' || line[0] == '%';
}

/// The fast path for the common line shape "<digits>[ \t]+<digits>[ \t\r]*"
/// with at most 18 digits per field (so no value can overflow). Returns
/// false on any other line, which then takes the general path
/// (IsCommentOrBlank, SplitWhitespace, ParseInt64); every line accepted
/// here parses to the same pair there.
bool ParseDigitPair(std::string_view line, int64_t* first, int64_t* second) {
  const char* p = line.data();
  const char* const end = p + line.size();
  auto digits = [&p, end](int64_t* out) {
    int64_t value = 0;
    int count = 0;
    for (; p < end && static_cast<unsigned char>(*p - '0') < 10; ++p) {
      if (++count > 18) return false;
      value = value * 10 + (*p - '0');
    }
    *out = value;
    return count > 0;
  };
  if (!digits(first)) return false;
  if (p == end || (*p != ' ' && *p != '\t')) return false;
  while (p < end && (*p == ' ' || *p == '\t')) ++p;
  if (!digits(second)) return false;
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p == end;
}

/// Calls `on_line(line, line_number)` for every line of `path`, numbered
/// from 1 the way std::getline counts them: '\n' ends a line and a final
/// unterminated line counts. The file is read in kReadBlockBytes blocks
/// into one fixed buffer; a line cut by a block boundary is carried over
/// (a line longer than a block grows the carry, never the buffer). Stops
/// at the first non-OK status `on_line` returns.
template <typename OnLine>
Status ForEachLine(const std::string& path, const char* open_error,
                   OnLine&& on_line) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::IOError(open_error + path);
  }
  std::vector<char> block(kReadBlockBytes);
  std::string carry;  // the unterminated tail of the previous block
  int64_t line_no = 0;
  for (;;) {
    const size_t got = std::fread(block.data(), 1, block.size(), file.get());
    if (got == 0) break;
    const char* p = block.data();
    const char* const end = p + got;
    if (!carry.empty()) {
      const char* nl = static_cast<const char*>(std::memchr(p, '\n', got));
      if (nl == nullptr) {
        carry.append(p, end);
        continue;
      }
      carry.append(p, nl);
      p = nl + 1;
      SPINNER_RETURN_IF_ERROR(on_line(std::string_view(carry), ++line_no));
      carry.clear();
    }
    while (p < end) {
      const char* nl =
          static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (nl == nullptr) {
        carry.assign(p, end);
        break;
      }
      SPINNER_RETURN_IF_ERROR(
          on_line(std::string_view(p, nl - p), ++line_no));
      p = nl + 1;
    }
  }
  if (std::ferror(file.get())) {
    return Status::IOError("read error on: " + path);
  }
  if (!carry.empty()) {
    SPINNER_RETURN_IF_ERROR(on_line(std::string_view(carry), ++line_no));
  }
  return Status::OK();
}

}  // namespace

Result<EdgeList> ReadEdgeList(const std::string& path) {
  EdgeList edges;
  SPINNER_RETURN_IF_ERROR(ForEachLine(
      path, "cannot open edge list file: ",
      [&](std::string_view line, int64_t line_no) -> Status {
        int64_t src = 0;
        int64_t dst = 0;
        if (!ParseDigitPair(line, &src, &dst)) {
          if (IsCommentOrBlank(line)) return Status::OK();
          const auto fields = SplitWhitespace(line);
          if (fields.size() < 2 || !ParseInt64(fields[0], &src) ||
              !ParseInt64(fields[1], &dst) || src < 0 || dst < 0) {
            return Status::InvalidArgument(StrFormat(
                "%s:%lld: malformed edge line: '%s'", path.c_str(),
                static_cast<long long>(line_no),
                std::string(Trim(line)).c_str()));
          }
        }
        edges.push_back({src, dst});
        return Status::OK();
      }));
  return edges;
}

Status WriteEdgeList(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  for (const Edge& e : edges) {
    out << e.src << ' ' << e.dst << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IOError("write error on: " + path);
  }
  return Status::OK();
}

Result<std::vector<PartitionId>> ReadPartitioning(const std::string& path,
                                                  int64_t num_vertices) {
  std::vector<PartitionId> assignment(num_vertices, kNoPartition);
  SPINNER_RETURN_IF_ERROR(ForEachLine(
      path, "cannot open partition file: ",
      [&](std::string_view line, int64_t line_no) -> Status {
        int64_t vertex = 0;
        int64_t part = 0;
        if (!ParseDigitPair(line, &vertex, &part)) {
          if (IsCommentOrBlank(line)) return Status::OK();
          const auto fields = SplitWhitespace(line);
          if (fields.size() < 2 || !ParseInt64(fields[0], &vertex) ||
              !ParseInt64(fields[1], &part) || part < 0) {
            return Status::InvalidArgument(StrFormat(
                "%s:%lld: malformed partition line: '%s'", path.c_str(),
                static_cast<long long>(line_no),
                std::string(Trim(line)).c_str()));
          }
        }
        if (vertex < 0 || vertex >= num_vertices) {
          return Status::OutOfRange(StrFormat(
              "%s:%lld: vertex %lld outside [0,%lld)", path.c_str(),
              static_cast<long long>(line_no), static_cast<long long>(vertex),
              static_cast<long long>(num_vertices)));
        }
        if (assignment[vertex] != kNoPartition) {
          return Status::InvalidArgument(StrFormat(
              "%s:%lld: vertex %lld assigned twice", path.c_str(),
              static_cast<long long>(line_no),
              static_cast<long long>(vertex)));
        }
        assignment[vertex] = static_cast<PartitionId>(part);
        return Status::OK();
      }));
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (assignment[v] == kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "vertex %lld has no partition in %s", static_cast<long long>(v),
          path.c_str()));
    }
  }
  return assignment;
}

Status WritePartitioning(const std::string& path,
                         const std::vector<PartitionId>& assignment) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  for (size_t v = 0; v < assignment.size(); ++v) {
    out << v << ' ' << assignment[v] << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IOError("write error on: " + path);
  }
  return Status::OK();
}

}  // namespace spinner::graph_io
