#include "text/format.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <variant>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace mvp::text
{

namespace
{

// ----------------------------------------------------------- printing
//
// Every printer appends to one caller-owned buffer through strappend()
// and appendInt() (std::to_chars): a printed nest or machine costs the
// buffer's growth and nothing else.

/** Append a quoted name; embedded quotes and newlines are unsupported. */
void
appendQuoted(std::string &out, const std::string &name)
{
    if (name.find_first_of("\"\n") != std::string::npos)
        mvp_fatal("name '", name,
                  "' cannot be printed: contains a quote or newline");
    strappend(out, '"', name, '"');
}

/**
 * Canonical affine rendering over the nest's loop-variable names:
 * non-zero coefficient terms outermost first, the constant last (alone
 * when nothing else prints), e.g. "2*i + j - 1".
 */
void
appendAffine(std::string &out, const ir::AffineExpr &expr,
             const std::vector<ir::LoopDim> &loops)
{
    const std::size_t start = out.size();
    auto term = [&](std::int64_t value, std::string_view var) {
        if (value == 0)
            return;
        // Unsigned: the magnitude of INT64_MIN does not fit an int64.
        const std::uint64_t mag =
            value < 0 ? 0 - static_cast<std::uint64_t>(value)
                      : static_cast<std::uint64_t>(value);
        if (out.size() == start)
            out += value < 0 ? "-" : "";
        else
            out += value < 0 ? " - " : " + ";
        if (var.empty())
            appendInt(out, mag);
        else if (mag == 1)
            out += var;
        else
            strappend(out, mag, '*', var);
    };
    for (std::size_t d = 0; d < loops.size(); ++d)
        term(expr.coeff(d), loops[d].name);
    if (expr.coeffs.size() > loops.size())
        mvp_fatal("affine expression has more coefficients than loops");
    term(expr.constant, "");
    if (out.size() == start)
        out += '0';
}

void
appendLoop(std::string &out, const ir::LoopNest &nest)
{
    // About 30 bytes a line: one reservation covers the usual nest.
    out.reserve(out.size() + 64 +
                40 * (nest.depth() + nest.arrays().size() + nest.size()));
    out += "loop ";
    appendQuoted(out, nest.name());
    out += " {\n";
    for (const auto &dim : nest.loops()) {
        strappend(out, "  for ", dim.name, " = ", dim.lower, " to ",
                  dim.upper);
        if (dim.step != 1)
            strappend(out, " step ", dim.step);
        out += '\n';
    }
    for (const auto &arr : nest.arrays()) {
        strappend(out, "  array ", arr.name);
        for (const auto d : arr.dims)
            strappend(out, '[', d, ']');
        strappend(out, " elem=", arr.elemSize, " base=0x");
        appendInt(out, arr.base, 16);
        out += '\n';
    }
    for (const auto &op : nest.ops()) {
        strappend(out, "  %", op.id, " = ", ir::opcodeName(op.opcode));
        if (!op.name.empty()) {
            out += ' ';
            appendQuoted(out, op.name);
        }
        for (const auto &in : op.inputs) {
            if (in.isLiveIn()) {
                out += " _";
                continue;
            }
            strappend(out, " %", in.producer);
            if (in.distance != 0)
                strappend(out, '@', in.distance);
        }
        if (op.memRef) {
            const ir::AffineRef &ref = *op.memRef;
            strappend(out, op.isStore() ? " -> " : " ",
                      nest.array(ref.array).name, '[');
            for (std::size_t d = 0; d < ref.index.size(); ++d) {
                if (d)
                    out += ", ";
                appendAffine(out, ref.index[d], nest.loops());
            }
            out += ']';
        }
        out += '\n';
    }
    out += "}\n";
}

/** One machine key: its spelling and the field it sets. An `int`
 * field is a range-checked count, an int64 one a plain number. */
struct MachineKey
{
    std::string_view name;
    std::variant<int MachineConfig::*, std::int64_t MachineConfig::*,
                 bool MachineConfig::*>
        field;
};

/** Every machine key, in canonical print order. */
const MachineKey MACHINE_KEYS[] = {
    {"clusters", &MachineConfig::nClusters},
    {"int_fus", &MachineConfig::intFusPerCluster},
    {"fp_fus", &MachineConfig::fpFusPerCluster},
    {"mem_fus", &MachineConfig::memFusPerCluster},
    {"regs", &MachineConfig::regsPerCluster},
    {"reg_buses", &MachineConfig::nRegBuses},
    {"reg_bus_latency", &MachineConfig::regBusLatency},
    {"unbounded_reg_buses", &MachineConfig::unboundedRegBuses},
    {"mem_buses", &MachineConfig::nMemBuses},
    {"mem_bus_latency", &MachineConfig::memBusLatency},
    {"unbounded_mem_buses", &MachineConfig::unboundedMemBuses},
    {"cache_bytes", &MachineConfig::totalCacheBytes},
    {"cache_line", &MachineConfig::cacheLineBytes},
    {"cache_assoc", &MachineConfig::cacheAssoc},
    {"mshr", &MachineConfig::mshrEntries},
    {"lat_cache_hit", &MachineConfig::latCacheHit},
    {"lat_main_memory", &MachineConfig::latMainMemory},
    {"lat_int", &MachineConfig::latInt},
    {"lat_int_mul", &MachineConfig::latIntMul},
    {"lat_int_div", &MachineConfig::latIntDiv},
    {"lat_fp", &MachineConfig::latFp},
    {"lat_fp_div", &MachineConfig::latFpDiv},
    {"lat_store", &MachineConfig::latStore},
};

void
appendMachine(std::string &out, const MachineConfig &cfg)
{
    out.reserve(out.size() + 512);   // the preset machines print 390
    out += "machine ";
    appendQuoted(out, cfg.name);
    out += " {\n";
    for (const MachineKey &key : MACHINE_KEYS) {
        strappend(out, "  ", key.name, ' ');
        if (const auto *flag = std::get_if<bool MachineConfig::*>(&key.field))
            out += cfg.**flag ? "true" : "false";
        else if (const auto *count =
                     std::get_if<int MachineConfig::*>(&key.field))
            appendInt(out, cfg.**count);
        else
            appendInt(out, cfg.*std::get<std::int64_t MachineConfig::*>(
                                   key.field));
        out += '\n';
    }
    out += "}\n";
}

// ------------------------------------------------------------ lexing

enum class Tok
{
    Ident,    ///< bare word: keywords, array names, loop variables
    String,   ///< "quoted"
    Number,   ///< decimal or 0x hex (no sign; '-' lexes separately)
    OpRef,    ///< %N
    Punct,    ///< one of { } [ ] ( ) , = * + - @ _ or ->
    End,
};

// The grammar is ASCII: these are the C locale's character classes,
// whatever the process locale is, with no call per character.
bool isDigit(char c) { return c >= '0' && c <= '9'; }
/** @p c is a letter from a to @p last, either case. */
bool isLetterTo(char c, char last)
{
    return (c | 0x20) >= 'a' && (c | 0x20) <= last;
}
bool isAlpha(char c) { return isLetterTo(c, 'z'); }
bool isAlnum(char c) { return isDigit(c) || isAlpha(c); }
bool isHexDigit(char c) { return isDigit(c) || isLetterTo(c, 'f'); }
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/** A token; its text views the lexed input, which outlives it. */
struct Token
{
    Tok kind = Tok::End;
    std::string_view text;   ///< ident/punct spelling, string contents
    std::int64_t number = 0; ///< Number and OpRef payload
    int line = 0;
};

/**
 * Tokenise the input on demand, at most two tokens ahead. `#` starts a
 * comment running to the end of the line; newlines are otherwise
 * insignificant, so the grammar is free-form even though the canonical
 * printer is line-oriented.
 */
class Lexer
{
  public:
    Lexer(std::string_view text, const std::string &origin)
        : text_(text), origin_(origin)
    {
    }

    /** Token @p ahead positions from the cursor (0 = next, at most 1). */
    const Token &peek(std::size_t ahead = 0)
    {
        while (buffered_ <= ahead)
            ahead_[(head_ + buffered_++) % 2] = lexNext();
        return ahead_[(head_ + ahead) % 2];
    }

    Token next()
    {
        const Token tok = peek();
        head_ ^= 1;
        --buffered_;
        return tok;
    }

    [[noreturn]] void fail(const std::string &what)
    {
        mvp_fatal(origin_, ":", peek().line, ": ", what);
    }

  private:
    Token lexNext()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (isSpace(c)) {
                ++pos_;
            } else if (c == '#') {
                while (pos_ < text_.size() && text_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
        Token tok;
        tok.line = line_;
        if (pos_ >= text_.size())
            return tok;

        const char c = text_[pos_];
        if (c == '"') {
            const auto end = text_.find('"', pos_ + 1);
            if (end == text_.npos || text_.find('\n', pos_) < end)
                mvp_fatal(origin_, ":", line_, ": unterminated string");
            tok.kind = Tok::String;
            tok.text = text_.substr(pos_ + 1, end - pos_ - 1);
            pos_ = end + 1;
            return tok;
        }
        if (isAlpha(c) || c == '_') {
            std::size_t end = pos_;
            while (end < text_.size() && (isAlnum(text_[end]) ||
                                          text_[end] == '_' ||
                                          text_[end] == '.'))
                ++end;
            tok.text = text_.substr(pos_, end - pos_);
            // A lone underscore is the live-in operand, not a name.
            tok.kind = tok.text == "_" ? Tok::Punct : Tok::Ident;
            pos_ = end;
            return tok;
        }
        if (isDigit(c) || c == '%') {
            tok.kind = c == '%' ? Tok::OpRef : Tok::Number;
            if (c == '%' && (++pos_ >= text_.size() || !isDigit(text_[pos_])))
                mvp_fatal(origin_, ":", line_, ": '%' wants an op number");
            tok.number = lexNumber();
            return tok;
        }
        const std::size_t len = text_.compare(pos_, 2, "->") == 0 ? 2
                                : PUNCT.find(c) != PUNCT.npos   ? 1
                                                                : 0;
        if (len == 0)
            mvp_fatal(origin_, ":", line_, ": unexpected character '", c,
                      "'");
        tok.kind = Tok::Punct;
        tok.text = text_.substr(pos_, len);
        pos_ += len;
        return tok;
    }

    /**
     * A number: decimal, or hex after 0x, spanning every alphanumeric
     * character from here. Accepts exactly what std::stoll accepts of
     * that span as a whole, including its optional second 0x prefix
     * in hex ("0x0x1f" is 31).
     */
    std::int64_t lexNumber()
    {
        const auto hexPrefix = [&](std::size_t at) {
            return text_.size() - at > 1 && text_[at] == '0' &&
                   (text_[at + 1] == 'x' || text_[at + 1] == 'X');
        };
        const int base = hexPrefix(pos_) ? 16 : 10;
        std::size_t digits = base == 16 ? pos_ + 2 : pos_;
        std::size_t end = digits;
        while (end < text_.size() && isAlnum(text_[end]))
            ++end;
        if (base == 16 && end - digits > 2 && hexPrefix(digits) &&
            isHexDigit(text_[digits + 2]))
            digits += 2;
        std::int64_t value = 0;
        const char *last = text_.data() + end;
        const auto [ptr, ec] =
            std::from_chars(text_.data() + digits, last, value, base);
        if (ec != std::errc() || ptr != last)
            mvp_fatal(origin_, ":", line_, ": bad number '",
                      text_.substr(pos_, end - pos_), "'");
        pos_ = end;
        return value;
    }

    static constexpr std::string_view PUNCT = "{}[](),=*+-@";

    std::string_view text_;
    const std::string &origin_;
    std::size_t pos_ = 0;
    int line_ = 1;
    Token ahead_[2];             ///< ring of lexed, unconsumed tokens
    std::size_t head_ = 0;       ///< ahead_ slot of the next token
    std::size_t buffered_ = 0;   ///< tokens lexed into ahead_
};

// ----------------------------------------------------------- parsing

/** Names declared so far in a block: views into the parsed text. */
template <class Id>
using NameMap = std::map<std::string_view, Id>;

/** Recursive-descent parser over the token stream. */
class Parser
{
  public:
    Parser(std::string_view text, const std::string &origin)
        : lex_(text, origin)
    {
    }

    bool atEnd() { return lex_.peek().kind == Tok::End; }

    bool atIdent(std::string_view word)
    {
        return lex_.peek().kind == Tok::Ident && lex_.peek().text == word;
    }

    void expectIdent(std::string_view word)
    {
        if (!acceptIdent(word))
            fail("expected '" + std::string(word) + "'");
    }

    void expectPunct(std::string_view punct)
    {
        if (!acceptPunct(punct))
            fail("expected '" + std::string(punct) + "'");
    }

    bool acceptPunct(std::string_view punct)
    {
        if (lex_.peek().kind != Tok::Punct || lex_.peek().text != punct)
            return false;
        lex_.next();
        return true;
    }

    bool acceptIdent(std::string_view word)
    {
        if (!atIdent(word))
            return false;
        lex_.next();
        return true;
    }

    /** The text of the next token, which must be a @p kind. */
    std::string_view expectText(Tok kind, const char *what)
    {
        if (lex_.peek().kind != kind)
            fail(std::string("expected ") + what);
        return lex_.next().text;
    }

    std::int64_t expectNumber(const char *what)
    {
        const bool negative = acceptPunct("-");
        if (lex_.peek().kind != Tok::Number)
            fail(std::string("expected ") + what);
        const std::int64_t value = lex_.next().number;
        return negative ? -value : value;
    }

    [[noreturn]] void fail(const std::string &what) { lex_.fail(what); }

    /**
     * @p v as an int; a parse error naming the field (@p what, then
     * @p name and @p after) when it does not fit: a silent cast would
     * wrap 2^32 + 4 to 4.
     */
    int checkedInt(std::int64_t v, const char *what,
                   std::string_view name = {}, const char *after = "")
    {
        if (v < std::numeric_limits<int>::min() ||
            v > std::numeric_limits<int>::max())
            fail(what + std::string(name) + after + " value " +
                 std::to_string(v) + " is out of range");
        return static_cast<int>(v);
    }

    // ------------------------------------------------------ loop files

    LoopFile parseLoopFile()
    {
        LoopFile file;
        while (!atEnd()) {
            if (acceptIdent("suite")) {
                file.suite = expectText(Tok::String, "a quoted suite name");
            } else if (atIdent("loop")) {
                file.loops.push_back(parseLoopBlock());
            } else {
                fail("expected 'suite' or 'loop'");
            }
        }
        return file;
    }

    ir::LoopNest parseLoopBlock()
    {
        expectIdent("loop");
        ir::LoopNest nest(
            std::string(expectText(Tok::String, "a quoted loop name")));
        expectPunct("{");

        NameMap<std::size_t> iv_depth;
        NameMap<ArrayId> array_ids;
        while (!acceptPunct("}")) {
            if (atEnd())
                fail("unterminated loop block");
            if (atIdent("for"))
                parseForDim(nest, iv_depth);
            else if (atIdent("array"))
                parseArrayDecl(nest, array_ids);
            else if (lex_.peek().kind == Tok::OpRef)
                parseOp(nest, iv_depth, array_ids);
            else
                fail("expected 'for', 'array', an op ('%N = ...') or '}'");
        }
        nest.validate();
        return nest;
    }

    // ----------------------------------------------------- machines

    MachineConfig parseMachineBlock()
    {
        expectIdent("machine");
        MachineConfig cfg;
        cfg.name = expectText(Tok::String, "a quoted machine name");
        expectPunct("{");
        while (!acceptPunct("}")) {
            if (atEnd())
                fail("unterminated machine block");
            parseMachineKey(cfg, expectText(Tok::Ident, "a machine key"));
        }
        cfg.validate();
        return cfg;
    }

  private:
    void parseForDim(ir::LoopNest &nest, NameMap<std::size_t> &iv_depth)
    {
        expectIdent("for");
        ir::LoopDim dim;
        const std::string_view name =
            expectText(Tok::Ident, "a loop-variable name");
        dim.name = name;
        if (iv_depth.count(name))
            fail("duplicate loop variable '" + dim.name + "'");
        expectPunct("=");
        dim.lower = expectNumber("a lower bound");
        expectIdent("to");
        dim.upper = expectNumber("an (exclusive) upper bound");
        if (acceptIdent("step"))
            dim.step = expectNumber("a step");
        iv_depth.emplace(name, nest.addLoop(std::move(dim)));
    }

    void parseArrayDecl(ir::LoopNest &nest, NameMap<ArrayId> &array_ids)
    {
        expectIdent("array");
        ir::ArrayDecl decl;
        const std::string_view name = expectText(Tok::Ident, "an array name");
        decl.name = name;
        if (array_ids.count(name))
            fail("duplicate array '" + decl.name + "'");
        while (acceptPunct("[")) {
            decl.dims.push_back(expectNumber("an array extent"));
            expectPunct("]");
        }
        if (decl.dims.empty())
            fail("array '" + decl.name + "' wants at least one [extent]");
        expectIdent("elem");
        expectPunct("=");
        decl.elemSize = checkedInt(expectNumber("an element size"),
                                   "array '", decl.name, "' elem");
        expectIdent("base");
        expectPunct("=");
        const std::int64_t base = expectNumber("a base address");
        if (base < 0)
            fail("array '" + decl.name + "' has a negative base address");
        decl.base = static_cast<Addr>(base);
        array_ids.emplace(name, nest.addArray(std::move(decl)));
    }

    ir::Opcode parseOpcode(std::string_view word)
    {
        using ir::Opcode;
        for (const Opcode op :
             {Opcode::IAdd, Opcode::ISub, Opcode::IMul, Opcode::IDiv,
              Opcode::Copy, Opcode::FAdd, Opcode::FSub, Opcode::FMul,
              Opcode::FDiv, Opcode::FMadd, Opcode::Load, Opcode::Store})
            if (ir::opcodeName(op) == word)
                return op;
        fail("unknown opcode '" + std::string(word) + "'");
    }

    ir::AffineExpr parseAffine(const NameMap<std::size_t> &iv_depth)
    {
        ir::AffineExpr expr;
        bool first = true;
        for (;;) {
            std::int64_t sign = 1;
            if (acceptPunct("-"))
                sign = -1;
            else if (acceptPunct("+"))
                sign = 1;
            else if (!first)
                break;
            first = false;

            if (lex_.peek().kind == Tok::Number) {
                std::int64_t value = lex_.next().number;
                if (acceptPunct("*")) {
                    // coefficient * variable
                    addTerm(expr, iv_depth, sign * value,
                            expectText(Tok::Ident, "a loop variable"));
                } else {
                    addChecked(expr.constant, sign * value, "");
                }
            } else if (lex_.peek().kind == Tok::Ident) {
                addTerm(expr, iv_depth, sign, lex_.next().text);
            } else {
                fail("expected an affine term");
            }
        }
        return expr;
    }

    void addTerm(ir::AffineExpr &expr, const NameMap<std::size_t> &iv_depth,
                 std::int64_t coeff, std::string_view var)
    {
        const auto it = iv_depth.find(var);
        if (it == iv_depth.end())
            fail("unknown loop variable '" + std::string(var) + "'");
        if (expr.coeffs.size() <= it->second)
            expr.coeffs.resize(it->second + 1, 0);
        addChecked(expr.coeffs[it->second], coeff, var);
    }

    /** @p sum += @p term; on overflow a parse error spelling the term
     * ("-3", or "2*i" when it scales loop variable @p var). */
    void addChecked(std::int64_t &sum, std::int64_t term,
                    std::string_view var)
    {
        if (__builtin_add_overflow(sum, term, &sum))
            fail("affine term " + std::to_string(term) +
                 (var.empty() ? "" : "*") + std::string(var) +
                 " overflows the 64-bit index expression");
    }

    ir::AffineRef parseRef(const NameMap<std::size_t> &iv_depth,
                           const NameMap<ArrayId> &array_ids)
    {
        const std::string_view name = expectText(Tok::Ident, "an array name");
        const auto it = array_ids.find(name);
        if (it == array_ids.end())
            fail("reference to undeclared array '" + std::string(name) +
                 "'");
        ir::AffineRef ref;
        ref.array = it->second;
        expectPunct("[");
        for (;;) {
            ref.index.push_back(parseAffine(iv_depth));
            if (acceptPunct("]"))
                break;
            expectPunct(",");
        }
        return ref;
    }

    void parseOp(ir::LoopNest &nest, const NameMap<std::size_t> &iv_depth,
                 const NameMap<ArrayId> &array_ids)
    {
        const std::int64_t id = lex_.next().number;
        if (id != static_cast<std::int64_t>(nest.size()))
            fail("op ids must be dense and in order: expected %" +
                 std::to_string(nest.size()) + ", got %" +
                 std::to_string(id));
        expectPunct("=");
        ir::Operation op;
        op.opcode = parseOpcode(expectText(Tok::Ident, "an opcode"));
        if (lex_.peek().kind == Tok::String)
            op.name = lex_.next().text;

        // Register operands: %N, %N@D or _ (live-in). An OpRef followed
        // by '=' is the next operation's header, not an operand — the
        // grammar is newline-insensitive, so this one spot needs a
        // second token of lookahead.
        for (;;) {
            if (lex_.peek().kind == Tok::OpRef &&
                !(lex_.peek(1).kind == Tok::Punct &&
                  lex_.peek(1).text == "=")) {
                ir::Operand in;
                in.producer = checkedInt(lex_.next().number, "operand id");
                if (acceptPunct("@"))
                    in.distance = checkedInt(expectNumber("a distance"),
                                             "operand distance");
                op.inputs.push_back(in);
            } else if (acceptPunct("_")) {
                op.inputs.push_back(ir::liveIn());
            } else {
                break;
            }
        }

        if (op.isStore()) {
            expectPunct("->");
            op.memRef = parseRef(iv_depth, array_ids);
        } else if (op.isLoad()) {
            op.memRef = parseRef(iv_depth, array_ids);
        }
        nest.addOp(std::move(op));
    }

    void parseMachineKey(MachineConfig &cfg, std::string_view key)
    {
        const auto *k = std::find_if(
            std::begin(MACHINE_KEYS), std::end(MACHINE_KEYS),
            [&](const MachineKey &m) { return key == m.name; });
        if (k == std::end(MACHINE_KEYS))
            fail("unknown machine key '" + std::string(key) + "'");
        if (const auto *flag = std::get_if<bool MachineConfig::*>(&k->field)) {
            if (acceptIdent("true"))
                cfg.**flag = true;
            else if (acceptIdent("false"))
                cfg.**flag = false;
            else
                fail("expected 'true' or 'false' after '" +
                     std::string(key) + "'");
        } else if (const auto *count =
                       std::get_if<int MachineConfig::*>(&k->field)) {
            cfg.**count = checkedInt(expectNumber("a value"),
                                     "machine key '", key, "'");
        } else {
            cfg.*std::get<std::int64_t MachineConfig::*>(k->field) =
                expectNumber("a value");
        }
    }

    Lexer lex_;
};

std::string
readFileOrFatal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        mvp_fatal("cannot read '", path, "'");
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeFileOrFatal(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        mvp_fatal("cannot write '", path, "'");
    out << contents;
    if (!out)
        mvp_fatal("write to '", path, "' failed");
}

} // namespace

// ----------------------------------------------------------- loops

std::string
printLoop(const ir::LoopNest &nest)
{
    std::string out;
    appendLoop(out, nest);
    return out;
}

std::string
printLoopFile(const LoopFile &file)
{
    std::string out;
    if (!file.suite.empty()) {
        out += "suite ";
        appendQuoted(out, file.suite);
        out += "\n\n";
    }
    for (std::size_t i = 0; i < file.loops.size(); ++i) {
        if (i)
            out += '\n';
        appendLoop(out, file.loops[i]);
    }
    return out;
}

LoopFile
parseLoops(std::string_view text, const std::string &origin)
{
    return Parser(text, origin).parseLoopFile();
}

ir::LoopNest
parseLoop(std::string_view text, const std::string &origin)
{
    LoopFile file = parseLoops(text, origin);
    if (file.loops.size() != 1)
        mvp_fatal(origin, ": expected exactly one loop block, found ",
                  file.loops.size());
    return std::move(file.loops.front());
}

LoopFile
loadLoopFile(const std::string &path)
{
    return parseLoops(readFileOrFatal(path), path);
}

void
saveLoopFile(const LoopFile &file, const std::string &path)
{
    writeFileOrFatal(path, printLoopFile(file));
}

// --------------------------------------------------------- machines

std::string
printMachine(const MachineConfig &cfg)
{
    std::string out;
    appendMachine(out, cfg);
    return out;
}

MachineConfig
parseMachine(std::string_view text, const std::string &origin)
{
    Parser parser(text, origin);
    MachineConfig cfg = parser.parseMachineBlock();
    if (!parser.atEnd())
        parser.fail("trailing input after the machine block");
    return cfg;
}

MachineConfig
loadMachineFile(const std::string &path)
{
    return parseMachine(readFileOrFatal(path), path);
}

void
saveMachineFile(const MachineConfig &cfg, const std::string &path)
{
    writeFileOrFatal(path, printMachine(cfg));
}

// -------------------------------------------------------- scenarios

std::string
printScenario(const ScenarioText &scenario)
{
    std::string out;
    appendLoop(out, scenario.loop);
    out += '\n';
    appendMachine(out, scenario.machine);
    return out;
}

ScenarioText
parseScenario(std::string_view text, const std::string &origin)
{
    Parser parser(text, origin);
    ScenarioText out;
    bool have_loop = false;
    bool have_machine = false;
    while (!parser.atEnd()) {
        if (parser.atIdent("loop")) {
            if (have_loop)
                parser.fail("a scenario holds exactly one loop block");
            out.loop = parser.parseLoopBlock();
            have_loop = true;
        } else if (parser.atIdent("machine")) {
            if (have_machine)
                parser.fail("a scenario holds exactly one machine block");
            out.machine = parser.parseMachineBlock();
            have_machine = true;
        } else if (parser.acceptIdent("suite")) {
            // Tolerated so loop-file text pastes in unchanged; the
            // suite name plays no part in scheduling one scenario.
            (void)parser.expectText(Tok::String, "a quoted suite name");
        } else {
            parser.fail("expected a 'loop' or 'machine' block");
        }
    }
    if (!have_loop)
        mvp_fatal(origin, ": scenario has no loop block");
    if (!have_machine)
        mvp_fatal(origin, ": scenario has no machine block");
    return out;
}

} // namespace mvp::text
