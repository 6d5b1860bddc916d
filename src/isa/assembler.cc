#include "src/isa/assembler.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cstring>
#include <optional>
#include <sstream>

namespace casc {

namespace {

struct Statement {
  int line = 0;
  std::string mnemonic;               // lower-cased; empty for label-only lines
  std::vector<std::string> operands;  // raw operand strings
};

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    b++;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    e--;
  }
  return s.substr(b, e - b);
}

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.'; }

std::optional<int64_t> ParseNumber(const std::string& tok) {
  if (tok.empty()) {
    return std::nullopt;
  }
  size_t i = 0;
  bool neg = false;
  if (tok[0] == '-' || tok[0] == '+') {
    neg = tok[0] == '-';
    i = 1;
  }
  if (i >= tok.size() || !std::isdigit(static_cast<unsigned char>(tok[i]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str() + i, &end, 0);
  if (end == nullptr || *end != '\0' || errno != 0) {
    return std::nullopt;
  }
  const int64_t sv = static_cast<int64_t>(v);
  return neg ? -sv : sv;
}

std::optional<int> ParseCsrName(const std::string& name) {
  static const std::map<std::string, Csr> kNames = {
      {"mode", Csr::kMode},     {"edp", Csr::kEdp},       {"tdtr", Csr::kTdtr},
      {"tdtsize", Csr::kTdtSize}, {"prio", Csr::kPrio},   {"ptid", Csr::kPtid},
      {"coreid", Csr::kCoreId}, {"cycle", Csr::kCycle},
      {"selfkey", Csr::kSelfKey}, {"authkey", Csr::kAuthKey},
  };
  auto it = kNames.find(name);
  if (it != kNames.end()) {
    return static_cast<int>(it->second);
  }
  return std::nullopt;
}

std::optional<int> ParseRemoteRegName(const std::string& name) {
  const int gpr = ParseRegister(name);
  if (gpr >= 0) {
    return gpr;
  }
  static const std::map<std::string, RemoteReg> kNames = {
      {"pc", RemoteReg::kPc},     {"mode", RemoteReg::kMode}, {"edp", RemoteReg::kEdp},
      {"tdtr", RemoteReg::kTdtr}, {"tdtsize", RemoteReg::kTdtSize}, {"prio", RemoteReg::kPrio},
  };
  auto it = kNames.find(name);
  if (it != kNames.end()) {
    return static_cast<int>(it->second);
  }
  return std::nullopt;
}

// Splits "imm(reg)" into its parts. Returns false if not of that shape.
bool SplitMemOperand(const std::string& tok, std::string* imm, std::string* reg) {
  const size_t open = tok.find('(');
  if (open == std::string::npos || tok.back() != ')') {
    return false;
  }
  *imm = Trim(tok.substr(0, open));
  *reg = Trim(tok.substr(open + 1, tok.size() - open - 2));
  if (imm->empty()) {
    *imm = "0";
  }
  return true;
}

class AssemblerImpl {
 public:
  AssembleResult Run(const std::string& source, Addr base) {
    base_ = base;
    if (!ParseSource(source)) {
      return Fail();
    }
    // Pass 1: layout (assign addresses to labels).
    if (!Layout()) {
      return Fail();
    }
    // Pass 2: emit.
    if (!Emit()) {
      return Fail();
    }
    AssembleResult result;
    result.ok = true;
    result.program.base = base_;
    result.program.bytes = std::move(bytes_);
    result.program.symbols = std::move(symbols_);
    result.program.lines = std::move(lines_);
    result.program.data_ranges = std::move(data_ranges_);
    result.program.lint_allows = std::move(lint_allows_);
    return result;
  }

 private:
  AssembleResult Fail() {
    AssembleResult result;
    result.ok = false;
    result.error = error_;
    return result;
  }

  bool Error(int line, const std::string& msg) {
    std::ostringstream os;
    os << "line " << line << ": " << msg;
    error_ = os.str();
    return false;
  }

  // `; lint-allow: rule-a, rule-b` (or `*`) suppresses those lint rules for
  // diagnostics attributed to this source line.
  void ParseLintAllow(const std::string& comment, int line_no) {
    static const std::string kTag = "lint-allow:";
    const size_t at = comment.find(kTag);
    if (at == std::string::npos) {
      return;
    }
    std::string rest = comment.substr(at + kTag.size());
    while (!rest.empty()) {
      const size_t comma = rest.find(',');
      const std::string tok = Trim(comma == std::string::npos ? rest : rest.substr(0, comma));
      if (!tok.empty()) {
        lint_allows_[line_no].push_back(Lower(tok));
      }
      if (comma == std::string::npos) {
        break;
      }
      rest = rest.substr(comma + 1);
    }
  }

  bool ParseSource(const std::string& source) {
    std::istringstream in(source);
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
      line_no++;
      // Strip comments (# and ;), but first mine them for lint suppressions.
      const size_t hash = raw.find_first_of("#;");
      if (hash != std::string::npos) {
        ParseLintAllow(raw.substr(hash + 1), line_no);
      }
      std::string line = Trim(hash == std::string::npos ? raw : raw.substr(0, hash));
      if (line.empty()) {
        continue;
      }
      // Peel off leading labels ("name:").
      while (true) {
        size_t i = 0;
        if (!IsIdentStart(line[0])) {
          break;
        }
        while (i < line.size() && IsIdentChar(line[i])) {
          i++;
        }
        if (i < line.size() && line[i] == ':') {
          Statement label_stmt;
          label_stmt.line = line_no;
          label_stmt.mnemonic = "";
          label_stmt.operands.push_back(line.substr(0, i));
          statements_.push_back(label_stmt);
          line = Trim(line.substr(i + 1));
          if (line.empty()) {
            break;
          }
          continue;
        }
        break;
      }
      if (line.empty()) {
        continue;
      }
      Statement st;
      st.line = line_no;
      size_t sp = 0;
      while (sp < line.size() && !std::isspace(static_cast<unsigned char>(line[sp]))) {
        sp++;
      }
      st.mnemonic = Lower(line.substr(0, sp));
      std::string rest = Trim(line.substr(sp));
      // Split operands on commas.
      while (!rest.empty()) {
        const size_t comma = rest.find(',');
        if (comma == std::string::npos) {
          st.operands.push_back(Trim(rest));
          break;
        }
        st.operands.push_back(Trim(rest.substr(0, comma)));
        rest = Trim(rest.substr(comma + 1));
      }
      statements_.push_back(st);
    }
    return true;
  }

  // Size in bytes a statement will occupy; 0 for labels. li/la may expand.
  std::optional<uint64_t> SizeOf(const Statement& st) {
    if (st.mnemonic.empty()) {
      return 0;
    }
    if (st.mnemonic == ".org" || st.mnemonic == ".align") {
      return std::nullopt;  // handled specially
    }
    if (st.mnemonic == ".word") {
      return 8;
    }
    if (st.mnemonic == ".word32") {
      return 4;
    }
    if (st.mnemonic == ".space") {
      const auto n = st.operands.empty() ? std::nullopt : ParseNumber(st.operands[0]);
      return n ? static_cast<uint64_t>(*n) : 0;
    }
    if (st.mnemonic == "li" || st.mnemonic == "la") {
      return LiIsShort(st) ? 4 : 8;
    }
    return 4;
  }

  static bool LiIsShort(const Statement& st) {
    if (st.mnemonic == "la" || st.operands.size() < 2) {
      return false;
    }
    const auto n = ParseNumber(st.operands[1]);
    return n && *n >= -32768 && *n <= 32767;
  }

  bool Layout() {
    Addr lc = base_;
    for (const Statement& st : statements_) {
      if (st.mnemonic.empty()) {
        const std::string& label = st.operands[0];
        if (symbols_.count(label) != 0) {
          return Error(st.line, "duplicate label: " + label);
        }
        symbols_[label] = lc;
        continue;
      }
      if (st.mnemonic == ".org") {
        const auto n = st.operands.empty() ? std::nullopt : ParseNumber(st.operands[0]);
        if (!n || static_cast<Addr>(*n) < lc) {
          return Error(st.line, ".org must move forward");
        }
        lc = static_cast<Addr>(*n);
        continue;
      }
      if (st.mnemonic == ".align") {
        const auto n = st.operands.empty() ? std::nullopt : ParseNumber(st.operands[0]);
        if (!n || *n <= 0 || (*n & (*n - 1)) != 0) {
          return Error(st.line, ".align needs a power-of-two argument");
        }
        const Addr a = static_cast<Addr>(*n);
        lc = (lc + a - 1) & ~(a - 1);
        continue;
      }
      const auto size = SizeOf(st);
      if (!size) {
        return Error(st.line, "internal: unsized statement");
      }
      lc += *size;
    }
    end_ = lc;
    return true;
  }

  // Operand -> 64-bit value (number or symbol).
  bool EvalValue(const Statement& st, const std::string& tok, int64_t* out) {
    const auto n = ParseNumber(tok);
    if (n) {
      *out = *n;
      return true;
    }
    auto it = symbols_.find(tok);
    if (it != symbols_.end()) {
      *out = static_cast<int64_t>(it->second);
      return true;
    }
    return Error(st.line, "unknown symbol: " + tok);
  }

  bool NeedOperands(const Statement& st, size_t n) {
    if (st.operands.size() != n) {
      return Error(st.line,
                   st.mnemonic + " expects " + std::to_string(n) + " operands, got " +
                       std::to_string(st.operands.size()));
    }
    return true;
  }

  bool Reg(const Statement& st, const std::string& tok, uint8_t* out) {
    const int r = ParseRegister(tok);
    if (r < 0) {
      return Error(st.line, "bad register: " + tok);
    }
    *out = static_cast<uint8_t>(r);
    return true;
  }

  void Put32(Addr addr, uint32_t v) {
    const size_t off = addr - base_;
    std::memcpy(&bytes_[off], &v, 4);
  }
  void Put64(Addr addr, uint64_t v) {
    const size_t off = addr - base_;
    std::memcpy(&bytes_[off], &v, 8);
  }
  void PutInst(Addr addr, const Instruction& inst) { Put32(addr, Encode(inst)); }

  bool EmitBranch(const Statement& st, Opcode op, Addr lc) {
    if (!NeedOperands(st, 3)) {
      return false;
    }
    Instruction inst;
    inst.op = op;
    if (!Reg(st, st.operands[0], &inst.rd) || !Reg(st, st.operands[1], &inst.rs1)) {
      return false;
    }
    int64_t target = 0;
    if (!EvalValue(st, st.operands[2], &target)) {
      return false;
    }
    const int64_t delta = target - static_cast<int64_t>(lc + 4);
    if (delta % 4 != 0) {
      return Error(st.line, "branch target not word aligned");
    }
    const int64_t words = delta / 4;
    if (words < -32768 || words > 32767) {
      return Error(st.line, "branch target out of range");
    }
    inst.imm = static_cast<int32_t>(words);
    PutInst(lc, inst);
    return true;
  }

  // Appends [start, end) to the data-range list, fusing with the previous
  // range when contiguous and like-typed so the list stays short.
  void MarkData(Addr start, Addr end, uint32_t elem) {
    if (end <= start) {
      return;
    }
    if (!data_ranges_.empty() && data_ranges_.back().end == start &&
        data_ranges_.back().elem == elem) {
      data_ranges_.back().end = end;
      return;
    }
    data_ranges_.push_back({start, end, elem});
  }

  bool Emit() {
    bytes_.assign(end_ - base_, 0);
    Addr lc = base_;
    for (const Statement& st : statements_) {
      if (st.mnemonic.empty()) {
        continue;
      }
      if (st.mnemonic == ".org") {
        const Addr to = static_cast<Addr>(*ParseNumber(st.operands[0]));
        MarkData(lc, to, 0);
        lc = to;
        continue;
      }
      if (st.mnemonic == ".align") {
        const Addr a = static_cast<Addr>(*ParseNumber(st.operands[0]));
        const Addr to = (lc + a - 1) & ~(a - 1);
        MarkData(lc, to, 0);
        lc = to;
        continue;
      }
      if (st.mnemonic == ".space") {
        const uint64_t size = SizeOf(st).value();
        MarkData(lc, lc + size, 0);
        lines_[lc] = st.line;
        lc += size;
        continue;
      }
      if (st.mnemonic == ".word" || st.mnemonic == ".word32") {
        if (!NeedOperands(st, 1)) {
          return false;
        }
        int64_t v = 0;
        if (!EvalValue(st, st.operands[0], &v)) {
          return false;
        }
        lines_[lc] = st.line;
        if (st.mnemonic == ".word") {
          Put64(lc, static_cast<uint64_t>(v));
          MarkData(lc, lc + 8, 8);
          lc += 8;
        } else {
          Put32(lc, static_cast<uint32_t>(v));
          MarkData(lc, lc + 4, 4);
          lc += 4;
        }
        continue;
      }
      if (!EmitInstruction(st, lc)) {
        return false;
      }
      const uint64_t size = SizeOf(st).value();
      for (Addr a = lc; a < lc + size; a += 4) {
        lines_[a] = st.line;
      }
      lc += size;
    }
    return true;
  }

  bool EmitInstruction(const Statement& st, Addr lc) {
    const std::string& m = st.mnemonic;
    Instruction inst;

    // Pseudo-instructions first.
    if (m == "li" || m == "la") {
      if (!NeedOperands(st, 2)) {
        return false;
      }
      uint8_t rd = 0;
      if (!Reg(st, st.operands[0], &rd)) {
        return false;
      }
      int64_t v = 0;
      if (!EvalValue(st, st.operands[1], &v)) {
        return false;
      }
      if (m == "li" && LiIsShort(st)) {
        PutInst(lc, {Opcode::kAddi, rd, 0, 0, static_cast<int32_t>(v)});
        return true;
      }
      if (v < 0 || v > 0xffffffffll) {
        return Error(st.line, "li/la value out of 32-bit range");
      }
      PutInst(lc, {Opcode::kLui, rd, 0, 0, static_cast<int32_t>((v >> 16) & 0xffff)});
      PutInst(lc + 4, {Opcode::kOri, rd, rd, 0, static_cast<int32_t>(v & 0xffff)});
      return true;
    }
    if (m == "mv") {
      if (!NeedOperands(st, 2)) {
        return false;
      }
      uint8_t rd = 0;
      uint8_t rs = 0;
      if (!Reg(st, st.operands[0], &rd) || !Reg(st, st.operands[1], &rs)) {
        return false;
      }
      PutInst(lc, {Opcode::kAddi, rd, rs, 0, 0});
      return true;
    }
    if (m == "j") {
      Statement b = st;
      b.operands = {"r0", "r0", st.operands.empty() ? "" : st.operands[0]};
      return EmitBranch(b, Opcode::kBeq, lc);
    }
    if (m == "call") {
      if (!NeedOperands(st, 1)) {
        return false;
      }
      int64_t target = 0;
      if (!EvalValue(st, st.operands[0], &target)) {
        return false;
      }
      const int64_t words = (target - static_cast<int64_t>(lc + 4)) / 4;
      if (words < -(1 << 25) || words >= (1 << 25)) {
        return Error(st.line, "call target out of range");
      }
      PutInst(lc, {Opcode::kJal, 0, 0, 0, static_cast<int32_t>(words)});
      return true;
    }
    if (m == "ret") {
      PutInst(lc, {Opcode::kJalr, 0, 31, 0, 0});
      return true;
    }
    if (m == "bgt" || m == "ble") {
      if (!NeedOperands(st, 3)) {
        return false;
      }
      Statement b = st;
      b.operands = {st.operands[1], st.operands[0], st.operands[2]};
      return EmitBranch(b, m == "bgt" ? Opcode::kBlt : Opcode::kBge, lc);
    }

    // Real opcodes.
    static const std::map<std::string, Opcode> kOps = [] {
      std::map<std::string, Opcode> ops;
      for (uint32_t i = 0; i < static_cast<uint32_t>(Opcode::kCount); i++) {
        ops[OpcodeName(static_cast<Opcode>(i))] = static_cast<Opcode>(i);
      }
      return ops;
    }();
    auto oit = kOps.find(m);
    if (oit == kOps.end()) {
      return Error(st.line, "unknown mnemonic: " + m);
    }
    inst.op = oit->second;

    switch (inst.op) {
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kMwait:
        PutInst(lc, inst);
        return true;

      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kSll:
      case Opcode::kSrl:
      case Opcode::kSra:
      case Opcode::kSlt:
      case Opcode::kSltu:
      case Opcode::kAmoadd:
        if (!NeedOperands(st, 3) || !Reg(st, st.operands[0], &inst.rd) ||
            !Reg(st, st.operands[1], &inst.rs1) || !Reg(st, st.operands[2], &inst.rs2)) {
          return false;
        }
        PutInst(lc, inst);
        return true;

      case Opcode::kAddi:
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
      case Opcode::kSlli:
      case Opcode::kSrli:
      case Opcode::kSrai:
      case Opcode::kSlti:
      case Opcode::kJalr: {
        if (!NeedOperands(st, 3) || !Reg(st, st.operands[0], &inst.rd) ||
            !Reg(st, st.operands[1], &inst.rs1)) {
          return false;
        }
        int64_t v = 0;
        if (!EvalValue(st, st.operands[2], &v)) {
          return false;
        }
        inst.imm = static_cast<int32_t>(v);
        PutInst(lc, inst);
        return true;
      }

      case Opcode::kLui: {
        if (!NeedOperands(st, 2) || !Reg(st, st.operands[0], &inst.rd)) {
          return false;
        }
        int64_t v = 0;
        if (!EvalValue(st, st.operands[1], &v)) {
          return false;
        }
        inst.imm = static_cast<int32_t>(v);
        PutInst(lc, inst);
        return true;
      }

      case Opcode::kLd:
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLb:
      case Opcode::kSd:
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb: {
        if (!NeedOperands(st, 2) || !Reg(st, st.operands[0], &inst.rd)) {
          return false;
        }
        std::string imm_s;
        std::string reg_s;
        if (!SplitMemOperand(st.operands[1], &imm_s, &reg_s)) {
          return Error(st.line, "expected imm(reg) operand");
        }
        if (!Reg(st, reg_s, &inst.rs1)) {
          return false;
        }
        int64_t v = 0;
        if (!EvalValue(st, imm_s, &v)) {
          return false;
        }
        inst.imm = static_cast<int32_t>(v);
        PutInst(lc, inst);
        return true;
      }

      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        return EmitBranch(st, inst.op, lc);

      case Opcode::kJal: {
        if (!NeedOperands(st, 1)) {
          return false;
        }
        int64_t target = 0;
        if (!EvalValue(st, st.operands[0], &target)) {
          return false;
        }
        const int64_t words = (target - static_cast<int64_t>(lc + 4)) / 4;
        if (words < -(1 << 25) || words >= (1 << 25)) {
          return Error(st.line, "jal target out of range");
        }
        inst.imm = static_cast<int32_t>(words);
        PutInst(lc, inst);
        return true;
      }

      case Opcode::kCsrrd:
      case Opcode::kCsrwr: {
        if (!NeedOperands(st, 2)) {
          return false;
        }
        const bool rd_first = inst.op == Opcode::kCsrrd;
        const std::string& reg_tok = rd_first ? st.operands[0] : st.operands[1];
        const std::string& csr_tok = rd_first ? st.operands[1] : st.operands[0];
        if (!Reg(st, reg_tok, &inst.rd)) {
          return false;
        }
        const auto named = ParseCsrName(Lower(csr_tok));
        if (named) {
          inst.imm = *named;
        } else {
          int64_t v = 0;
          if (!EvalValue(st, csr_tok, &v)) {
            return false;
          }
          inst.imm = static_cast<int32_t>(v);
        }
        PutInst(lc, inst);
        return true;
      }

      case Opcode::kMonitor:
      case Opcode::kStart:
      case Opcode::kStop:
        if (!NeedOperands(st, 1) || !Reg(st, st.operands[0], &inst.rs1)) {
          return false;
        }
        PutInst(lc, inst);
        return true;

      case Opcode::kRpull: {
        // rpull rd, vtid_reg, remote_reg
        if (!NeedOperands(st, 3) || !Reg(st, st.operands[0], &inst.rd) ||
            !Reg(st, st.operands[1], &inst.rs1)) {
          return false;
        }
        const auto rr = ParseRemoteRegName(Lower(st.operands[2]));
        if (!rr) {
          return Error(st.line, "bad remote register: " + st.operands[2]);
        }
        inst.imm = *rr;
        PutInst(lc, inst);
        return true;
      }

      case Opcode::kRpush: {
        // rpush vtid_reg, remote_reg, src_reg
        if (!NeedOperands(st, 3) || !Reg(st, st.operands[0], &inst.rs1) ||
            !Reg(st, st.operands[2], &inst.rd)) {
          return false;
        }
        const auto rr = ParseRemoteRegName(Lower(st.operands[1]));
        if (!rr) {
          return Error(st.line, "bad remote register: " + st.operands[1]);
        }
        inst.imm = *rr;
        PutInst(lc, inst);
        return true;
      }

      case Opcode::kInvtid:
        // invtid vtid_reg, remote_vtid_reg
        if (!NeedOperands(st, 2) || !Reg(st, st.operands[0], &inst.rs1) ||
            !Reg(st, st.operands[1], &inst.rs2)) {
          return false;
        }
        PutInst(lc, inst);
        return true;

      case Opcode::kHcall: {
        if (!NeedOperands(st, 1)) {
          return false;
        }
        int64_t v = 0;
        if (!EvalValue(st, st.operands[0], &v)) {
          return false;
        }
        inst.imm = static_cast<int32_t>(v);
        PutInst(lc, inst);
        return true;
      }

      default:
        return Error(st.line, "unsupported mnemonic: " + m);
    }
  }

  Addr base_ = 0;
  Addr end_ = 0;
  std::vector<Statement> statements_;
  std::map<std::string, Addr> symbols_;
  std::vector<uint8_t> bytes_;
  std::map<Addr, int> lines_;
  std::vector<DataRange> data_ranges_;
  std::map<int, std::vector<std::string>> lint_allows_;
  std::string error_;
};

}  // namespace

Addr Program::Symbol(const std::string& name) const {
  auto it = symbols.find(name);
  assert(it != symbols.end() && "unknown symbol");
  return it->second;
}

int Program::LineAt(Addr addr) const {
  auto it = lines.find(addr);
  return it == lines.end() ? 0 : it->second;
}

bool Program::InData(Addr addr) const {
  for (const DataRange& r : data_ranges) {
    if (addr >= r.start && addr < r.end) {
      return true;
    }
  }
  return false;
}

bool Program::LintAllowed(int line, const std::string& rule_id) const {
  auto it = lint_allows.find(line);
  if (it == lint_allows.end()) {
    return false;
  }
  for (const std::string& allowed : it->second) {
    if (allowed == "*" || allowed == rule_id) {
      return true;
    }
  }
  return false;
}

void Program::LoadInto(PhysicalMemory& mem) const {
  if (!bytes.empty()) {
    mem.Write(base, bytes.data(), bytes.size());
  }
}

std::vector<HarnessThread> HarnessThreads(const Program& program) {
  constexpr uint64_t kTdtEntryBytes = 16;  // TdtEntry::kBytes (src/hwt/tdt.h)
  std::vector<HarnessThread> threads;
  for (const auto& [name, addr] : program.symbols) {
    if (name.size() < 8 || name[0] != 't' || !name.ends_with("_entry")) {
      continue;
    }
    const std::string digits = name.substr(1, name.size() - 7);
    HarnessThread t;
    // Round-tripping rejects what is not a Ptid in plain decimal.
    std::from_chars(digits.data(), digits.data() + digits.size(), t.ptid);
    if (std::to_string(t.ptid) != digits) {
      continue;
    }
    t.entry = addr;
    const std::string prefix = "t" + digits + "_";
    t.auto_start = program.symbols.count(prefix + "main") != 0;
    t.supervisor = program.symbols.count(prefix + "user") == 0;
    if (auto it = program.symbols.find(prefix + "edp"); it != program.symbols.end()) {
      t.edp = it->second;
    }
    auto tdt = program.symbols.find(prefix + "tdt");
    auto tdt_end = program.symbols.find(prefix + "tdt_end");
    if (tdt != program.symbols.end() && tdt_end != program.symbols.end() &&
        tdt_end->second > tdt->second) {
      t.tdtr = tdt->second;
      t.tdt_size = (tdt_end->second - tdt->second) / kTdtEntryBytes;
    }
    threads.push_back(t);
  }
  std::sort(threads.begin(), threads.end(),
            [](const HarnessThread& x, const HarnessThread& y) { return x.ptid < y.ptid; });
  return threads;
}

AssembleResult Assembler::Assemble(const std::string& source, Addr base) {
  AssemblerImpl impl;
  return impl.Run(source, base);
}

}  // namespace casc
