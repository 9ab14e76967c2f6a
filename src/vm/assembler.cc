#include "src/vm/assembler.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/vm/abi.h"

namespace pmig::vm {

namespace {

// Symbolic names every program can use without declaring them.
std::map<std::string, int64_t, std::less<>> PredefinedSymbols() {
  using namespace abi;
  std::map<std::string, int64_t, std::less<>> symbols = {
      {"O_RDONLY", kORdOnly},
      {"O_WRONLY", kOWrOnly},
      {"O_RDWR", kORdWr},
      {"O_APPEND", kOAppend},
      {"O_CREAT", kOCreat},
      {"O_TRUNC", kOTrunc},
      {"O_EXCL", kOExcl},
      {"SEEK_SET", kSeekSet},
      {"SEEK_CUR", kSeekCur},
      {"SEEK_END", kSeekEnd},
      {"TIOCGETP", kTiocGetP},
      {"TIOCSETP", kTiocSetP},
      {"TTY_ECHO", kTtyEcho},
      {"TTY_CBREAK", kTtyCbreak},
      {"TTY_RAW", kTtyRaw},
      {"TTY_CRMOD", kTtyCrMod},
      {"SIGHUP", kSigHup},
      {"SIGINT", kSigInt},
      {"SIGQUIT", kSigQuit},
      {"SIGILL", kSigIll},
      {"SIGFPE", kSigFpe},
      {"SIGKILL", kSigKill},
      {"SIGSEGV", kSigSegv},
      {"SIGPIPE", kSigPipe},
      {"SIGALRM", kSigAlrm},
      {"SIGTERM", kSigTerm},
      {"SIGCHLD", kSigChld},
      {"SIGUSR1", kSigUsr1},
      {"SIGUSR2", kSigUsr2},
      {"SIGDUMP", kSigDump},
      {"SIG_DFL", kSigDfl},
      {"SIG_IGN", kSigIgn},
      {"DATA_BASE", kDataBase},
      {"STACK_TOP", kStackTop},
  };
  for (const Syscall& call : kSyscalls) {
    symbols.emplace("SYS_" + std::string(call.name), call.number);
  }
  return symbols;
}

struct Line {
  int number = 0;
  std::string label;     // without the ':'
  std::string op;        // directive (with '.') or mnemonic, lower-case
  std::vector<std::string> operands;
  std::string raw;       // operand text before splitting (for string directives)
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

// Strips a comment that is not inside a double-quoted string.
std::string_view StripComment(std::string_view s) {
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"' && (i == 0 || s[i - 1] != '\\')) in_string = !in_string;
    if (!in_string && (c == ';' || c == '#')) return s.substr(0, i);
  }
  return s;
}

// Splits operands on commas that are not inside a string literal.
std::vector<std::string> SplitOperands(std::string_view s) {
  std::vector<std::string> out;
  bool in_string = false;
  size_t begin = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    const bool at_end = i == s.size();
    const char c = at_end ? ',' : s[i];
    if (!at_end && c == '"' && (i == 0 || s[i - 1] != '\\')) in_string = !in_string;
    if (!in_string && c == ',') {
      auto piece = Trim(s.substr(begin, i - begin));
      if (!piece.empty() || !out.empty() || !at_end) {
        if (!piece.empty()) out.emplace_back(piece);
      }
      begin = i + 1;
    }
  }
  return out;
}

class Assembler {
 public:
  explicit Assembler(std::string_view source) : source_(source) {
    symbols_ = PredefinedSymbols();
  }

  AsmOutput Run() {
    ParseLines();
    Pass1();
    if (output_.errors.empty()) Pass2();
    output_.ok = output_.errors.empty();
    if (output_.ok) {
      for (const auto& [name, value] : symbols_) output_.symbols[name] = value;
      FinishImage();
    }
    return std::move(output_);
  }

 private:
  enum class Section { kText, kData };

  void Error(int line, std::string message) {
    output_.errors.push_back(AsmError{line, std::move(message)});
  }

  void ParseLines() {
    // Sized to the line count up front: grown by doubling, a long program's
    // lines (12,500 for the benchmarks' big job) would be copied through a dozen
    // ever larger buffers, each discarded after one assembly.
    lines_.reserve(static_cast<size_t>(std::count(source_.begin(), source_.end(), '\n')) + 1);
    int number = 0;
    size_t pos = 0;
    while (pos <= source_.size()) {
      const size_t nl = source_.find('\n', pos);
      std::string_view raw_line =
          source_.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
      pos = nl == std::string_view::npos ? source_.size() + 1 : nl + 1;
      ++number;

      std::string_view text = Trim(StripComment(raw_line));
      if (text.empty()) continue;

      Line line;
      line.number = number;

      // Optional leading "label:".
      if (IsIdentStart(text.front())) {
        size_t i = 1;
        while (i < text.size() && IsIdentChar(text[i])) ++i;
        if (i < text.size() && text[i] == ':') {
          line.label = std::string(text.substr(0, i));
          text = Trim(text.substr(i + 1));
        }
      }

      if (!text.empty()) {
        size_t i = 0;
        while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
        line.op = std::string(text.substr(0, i));
        for (char& c : line.op) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        line.raw = std::string(Trim(text.substr(i)));
        line.operands = SplitOperands(line.raw);
      }
      lines_.push_back(std::move(line));
    }
  }

  // Size of the data emitted by a directive, or instruction slot, without
  // evaluating expressions (needed so labels can be forward-referenced).
  void Pass1() {
    Section section = Section::kText;
    uint32_t text_off = 0;
    uint32_t data_off = 0;
    for (const Line& line : lines_) {
      if (!line.label.empty()) {
        const int64_t value = section == Section::kText
                                  ? static_cast<int64_t>(text_off)
                                  : static_cast<int64_t>(kDataBase + data_off);
        if (!symbols_.emplace(line.label, value).second) {
          Error(line.number, "duplicate label '" + line.label + "'");
        }
      }
      if (line.op.empty()) continue;
      if (line.op == ".text") {
        section = Section::kText;
      } else if (line.op == ".data") {
        section = Section::kData;
      } else if (line.op == ".entry" || line.op == ".isa") {
        // handled in pass 2
      } else if (line.op == ".equ") {
        if (line.operands.size() != 2) {
          Error(line.number, ".equ needs a name and a value");
          continue;
        }
        // .equ values may not forward-reference labels; evaluate immediately.
        auto v = Eval(line.operands[1], line.number);
        if (v) symbols_[line.operands[0]] = *v;
      } else if (line.op == ".quad") {
        data_off += 8 * static_cast<uint32_t>(line.operands.size());
      } else if (line.op == ".byte") {
        data_off += static_cast<uint32_t>(line.operands.size());
      } else if (line.op == ".asciiz" || line.op == ".ascii") {
        auto s = ParseString(line.raw, line.number);
        if (s) data_off += static_cast<uint32_t>(s->size()) + (line.op == ".asciiz" ? 1 : 0);
      } else if (line.op == ".space") {
        auto v = Eval(line.operands.empty() ? "" : line.operands[0], line.number);
        if (v) data_off += static_cast<uint32_t>(*v);
      } else if (line.op[0] == '.') {
        Error(line.number, "unknown directive '" + line.op + "'");
      } else {
        if (section != Section::kText) {
          Error(line.number, "instruction outside .text");
          continue;
        }
        text_off += kInstrBytes;
      }
    }
  }

  void Pass2() {
    Section section = Section::kText;
    for (const Line& line : lines_) {
      if (line.op.empty()) continue;
      if (line.op == ".text") {
        section = Section::kText;
      } else if (line.op == ".data") {
        section = Section::kData;
      } else if (line.op == ".equ") {
        // already evaluated
      } else if (line.op == ".entry") {
        auto v = Eval(line.operands.empty() ? "" : line.operands[0], line.number);
        if (v) entry_ = static_cast<uint32_t>(*v);
        entry_set_ = true;
      } else if (line.op == ".isa") {
        auto v = Eval(line.operands.empty() ? "" : line.operands[0], line.number);
        if (v && (*v == 10 || *v == 20)) {
          declared_isa_ = static_cast<uint32_t>(*v);
        } else {
          Error(line.number, ".isa expects 10 or 20");
        }
      } else if (line.op == ".quad") {
        for (const std::string& operand : line.operands) {
          auto v = Eval(operand, line.number);
          EmitQuad(v.value_or(0));
        }
      } else if (line.op == ".byte") {
        for (const std::string& operand : line.operands) {
          auto v = Eval(operand, line.number);
          data_.push_back(static_cast<uint8_t>(v.value_or(0)));
        }
      } else if (line.op == ".asciiz" || line.op == ".ascii") {
        auto s = ParseString(line.raw, line.number);
        if (s) {
          data_.insert(data_.end(), s->begin(), s->end());
          if (line.op == ".asciiz") data_.push_back(0);
        }
      } else if (line.op == ".space") {
        auto v = Eval(line.operands.empty() ? "" : line.operands[0], line.number);
        if (v) data_.insert(data_.end(), static_cast<size_t>(*v), 0);
      } else {
        EmitInstruction(line);
      }
    }
    (void)section;
  }

  void EmitQuad(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      data_.push_back(static_cast<uint8_t>((static_cast<uint64_t>(v) >> (8 * i)) & 0xFF));
    }
  }

  std::optional<Opcode> FindOpcode(std::string_view mnemonic) const {
    for (size_t i = 0; i < static_cast<size_t>(Opcode::kNumOpcodes); ++i) {
      if (GetOpcodeInfo(static_cast<Opcode>(i)).mnemonic == mnemonic) {
        return static_cast<Opcode>(i);
      }
    }
    return std::nullopt;
  }

  std::optional<uint8_t> ParseReg(const std::string& s, int line) {
    if (s.size() >= 2 && (s[0] == 'r' || s[0] == 'R')) {
      char* end = nullptr;
      const long n = std::strtol(s.c_str() + 1, &end, 10);
      if (end && *end == '\0' && n >= 0 && n < kNumRegs) return static_cast<uint8_t>(n);
    }
    Error(line, "expected register r0..r7, got '" + s + "'");
    return std::nullopt;
  }

  void EmitInstruction(const Line& line) {
    const auto op = FindOpcode(line.op);
    if (!op) {
      Error(line.number, "unknown mnemonic '" + line.op + "'");
      return;
    }
    const OpcodeInfo& info = GetOpcodeInfo(*op);
    if (info.level == IsaLevel::kIsa20) used_isa20_ = true;

    Instruction instr;
    instr.op = *op;
    using Shape = OpcodeInfo::Shape;
    const auto& ops = line.operands;
    auto need = [&](size_t n) {
      if (ops.size() != n) {
        Error(line.number, line.op + " expects " + std::to_string(n) + " operand(s)");
        return false;
      }
      return true;
    };
    switch (info.shape) {
      case Shape::kNone:
        if (!need(0)) return;
        break;
      case Shape::kReg: {
        if (!need(1)) return;
        auto ra = ParseReg(ops[0], line.number);
        if (!ra) return;
        instr.ra = *ra;
        break;
      }
      case Shape::kRegImm: {
        if (!need(2)) return;
        auto ra = ParseReg(ops[0], line.number);
        auto imm = Eval(ops[1], line.number);
        if (!ra || !imm) return;
        instr.ra = *ra;
        instr.imm = CheckImm(*imm, line.number);
        break;
      }
      case Shape::kRegReg: {
        if (!need(2)) return;
        auto ra = ParseReg(ops[0], line.number);
        auto rb = ParseReg(ops[1], line.number);
        if (!ra || !rb) return;
        instr.ra = *ra;
        instr.rb = *rb;
        break;
      }
      case Shape::kThreeReg: {
        if (!need(3)) return;
        auto ra = ParseReg(ops[0], line.number);
        auto rb = ParseReg(ops[1], line.number);
        auto rc = ParseReg(ops[2], line.number);
        if (!ra || !rb || !rc) return;
        instr.ra = *ra;
        instr.rb = *rb;
        instr.rc = *rc;
        break;
      }
      case Shape::kRegRegImm: {
        if (!need(3)) return;
        auto ra = ParseReg(ops[0], line.number);
        auto rb = ParseReg(ops[1], line.number);
        auto imm = Eval(ops[2], line.number);
        if (!ra || !rb || !imm) return;
        instr.ra = *ra;
        instr.rb = *rb;
        instr.imm = CheckImm(*imm, line.number);
        break;
      }
      case Shape::kImm: {
        if (!need(1)) return;
        auto imm = Eval(ops[0], line.number);
        if (!imm) return;
        instr.imm = CheckImm(*imm, line.number);
        break;
      }
    }
    const auto bytes = instr.Encode();
    text_.insert(text_.end(), bytes.begin(), bytes.end());
  }

  int32_t CheckImm(int64_t v, int line) {
    if (v < INT32_MIN || v > INT32_MAX) {
      Error(line, "immediate out of 32-bit range");
      return 0;
    }
    return static_cast<int32_t>(v);
  }

  // Expression: term (('+'|'-') term)*, term = number | 'c' | identifier.
  std::optional<int64_t> Eval(std::string_view expr, int line) {
    expr = Trim(expr);
    if (expr.empty()) {
      Error(line, "missing expression");
      return std::nullopt;
    }
    int64_t acc = 0;
    int sign = 1;
    bool first = true;
    size_t i = 0;
    while (i < expr.size()) {
      while (i < expr.size() && std::isspace(static_cast<unsigned char>(expr[i]))) ++i;
      if (!first) {
        if (i >= expr.size() || (expr[i] != '+' && expr[i] != '-')) {
          Error(line, "bad expression '" + std::string(expr) + "'");
          return std::nullopt;
        }
        sign = expr[i] == '+' ? 1 : -1;
        ++i;
        while (i < expr.size() && std::isspace(static_cast<unsigned char>(expr[i]))) ++i;
      } else if (i < expr.size() && (expr[i] == '-' || expr[i] == '+')) {
        sign = expr[i] == '-' ? -1 : 1;
        ++i;
      }
      auto term = EvalTerm(expr, &i, line);
      if (!term) return std::nullopt;
      acc += sign * *term;
      first = false;
      sign = 1;
    }
    return acc;
  }

  std::optional<int64_t> EvalTerm(std::string_view expr, size_t* i, int line) {
    if (*i >= expr.size()) {
      Error(line, "bad expression '" + std::string(expr) + "'");
      return std::nullopt;
    }
    const char c = expr[*i];
    if (c == '\'') {  // character literal
      if (*i + 2 < expr.size() && expr[*i + 1] == '\\' && expr[*i + 3] == '\'') {
        const char esc = expr[*i + 2];
        *i += 4;
        switch (esc) {
          case 'n':
            return '\n';
          case 't':
            return '\t';
          case '0':
            return 0;
          case 'r':
            return '\r';
          case '\\':
            return '\\';
          default:
            Error(line, "bad character escape");
            return std::nullopt;
        }
      }
      if (*i + 2 < expr.size() && expr[*i + 2] == '\'') {
        const char lit = expr[*i + 1];
        *i += 3;
        return lit;
      }
      Error(line, "bad character literal");
      return std::nullopt;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      char* end = nullptr;
      const long long v = std::strtoll(expr.data() + *i, &end, 0);
      *i = static_cast<size_t>(end - expr.data());
      return v;
    }
    if (IsIdentStart(c)) {
      size_t j = *i + 1;
      while (j < expr.size() && IsIdentChar(expr[j])) ++j;
      const std::string name(expr.substr(*i, j - *i));
      *i = j;
      auto it = symbols_.find(name);
      if (it == symbols_.end()) {
        Error(line, "undefined symbol '" + name + "'");
        return std::nullopt;
      }
      return it->second;
    }
    Error(line, "bad expression '" + std::string(expr) + "'");
    return std::nullopt;
  }

  std::optional<std::string> ParseString(std::string_view raw, int line) {
    raw = Trim(raw);
    if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') {
      Error(line, "expected a double-quoted string");
      return std::nullopt;
    }
    std::string out;
    for (size_t i = 1; i + 1 < raw.size(); ++i) {
      char c = raw[i];
      if (c == '\\' && i + 2 < raw.size()) {
        ++i;
        switch (raw[i]) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case '0':
            c = '\0';
            break;
          case '\\':
            c = '\\';
            break;
          case '"':
            c = '"';
            break;
          default:
            Error(line, "bad string escape");
            return std::nullopt;
        }
      }
      out.push_back(c);
    }
    return out;
  }

  void FinishImage() {
    output_.image.text = sim::Blob(std::move(text_));
    output_.image.data = std::move(data_);
    output_.image.header.text_size = static_cast<uint32_t>(output_.image.text.size());
    output_.image.header.data_size = static_cast<uint32_t>(output_.image.data.size());
    if (!entry_set_) {
      auto it = symbols_.find("start");
      if (it != symbols_.end()) entry_ = static_cast<uint32_t>(it->second);
    }
    output_.image.header.entry = entry_;
    output_.image.header.machtype = declared_isa_ != 0 ? declared_isa_ : (used_isa20_ ? 20 : 10);
  }

  std::string_view source_;
  std::vector<Line> lines_;
  std::map<std::string, int64_t, std::less<>> symbols_;
  std::string text_;  // becomes the image's text blob without a copy
  std::vector<uint8_t> data_;
  uint32_t entry_ = 0;
  bool entry_set_ = false;
  uint32_t declared_isa_ = 0;
  bool used_isa20_ = false;
  AsmOutput output_;
};

}  // namespace

AsmOutput Assemble(std::string_view source) { return Assembler(source).Run(); }

AoutImage MustAssemble(std::string_view source) {
  AsmOutput out = Assemble(source);
  if (!out.ok) {
    for (const AsmError& e : out.errors) {
      std::fprintf(stderr, "asm error at line %d: %s\n", e.line, e.message.c_str());
    }
    std::abort();
  }
  return std::move(out.image);
}

}  // namespace pmig::vm
