#include "text/format.hh"

#include <cctype>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace mvp::text
{

namespace
{

// ----------------------------------------------------------- printing

/** Quote a name for the text format; embedded quotes are unsupported. */
std::string
quoted(const std::string &name)
{
    if (name.find('"') != std::string::npos ||
        name.find('\n') != std::string::npos)
        mvp_fatal("name '", name,
                  "' cannot be printed: contains a quote or newline");
    return '"' + name + '"';
}

/**
 * Canonical affine rendering over the nest's loop-variable names:
 * non-zero coefficient terms outermost first, the constant last (alone
 * when nothing else prints), e.g. "2*i + j - 1".
 */
std::string
affineToText(const ir::AffineExpr &expr,
             const std::vector<ir::LoopDim> &loops)
{
    std::string out;
    auto term = [&](std::int64_t value, const std::string &var) {
        if (value == 0)
            return;
        const std::int64_t mag = value < 0 ? -value : value;
        if (out.empty())
            out += value < 0 ? "-" : "";
        else
            out += value < 0 ? " - " : " + ";
        if (var.empty())
            out += std::to_string(mag);
        else if (mag == 1)
            out += var;
        else
            out += std::to_string(mag) + "*" + var;
    };
    for (std::size_t d = 0; d < loops.size(); ++d)
        term(expr.coeff(d), loops[d].name);
    if (expr.coeffs.size() > loops.size())
        mvp_fatal("affine expression has more coefficients than loops");
    term(expr.constant, "");
    return out.empty() ? "0" : out;
}

std::string
operandToText(const ir::Operand &in)
{
    if (in.isLiveIn())
        return "_";
    std::string out("%");
    out += std::to_string(in.producer);
    if (in.distance != 0)
        out += "@" + std::to_string(in.distance);
    return out;
}

std::string
refToText(const ir::AffineRef &ref, const ir::LoopNest &nest)
{
    std::string out = nest.array(ref.array).name + "[";
    for (std::size_t d = 0; d < ref.index.size(); ++d) {
        if (d)
            out += ", ";
        out += affineToText(ref.index[d], nest.loops());
    }
    out += "]";
    return out;
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

struct Token
{
    Tok kind = Tok::End;
    std::string text;        ///< ident/punct spelling, string contents
    std::int64_t number = 0; ///< Number and OpRef payload
    int line = 0;
};

/**
 * Tokenise the whole input. `#` starts a comment running to the end of
 * the line; newlines are otherwise insignificant, so the grammar is
 * free-form even though the canonical printer is line-oriented.
 */
class Lexer
{
  public:
    Lexer(const std::string &text, std::string origin)
        : text_(text), origin_(std::move(origin))
    {
    }

    const std::string &origin() const { return origin_; }

    /** Token @p ahead positions from the cursor (0 = next). */
    const Token &peek(std::size_t ahead = 0)
    {
        while (tokens_.size() <= ahead)
            tokens_.push_back(lexNext());
        return tokens_[ahead];
    }

    Token next()
    {
        peek();
        Token tok = std::move(tokens_.front());
        tokens_.erase(tokens_.begin());
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
            } else if (std::isspace(static_cast<unsigned char>(c))) {
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
            if (end == std::string::npos ||
                text_.find('\n', pos_) < end)
                mvp_fatal(origin_, ":", line_, ": unterminated string");
            tok.kind = Tok::String;
            tok.text = text_.substr(pos_ + 1, end - pos_ - 1);
            pos_ = end + 1;
            return tok;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            tok.kind = Tok::Number;
            tok.number = lexNumber();
            return tok;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t end = pos_;
            while (end < text_.size() &&
                   (std::isalnum(static_cast<unsigned char>(text_[end])) ||
                    text_[end] == '_' || text_[end] == '.'))
                ++end;
            tok.text = text_.substr(pos_, end - pos_);
            // A lone underscore is the live-in operand, not a name.
            tok.kind = tok.text == "_" ? Tok::Punct : Tok::Ident;
            pos_ = end;
            return tok;
        }
        if (c == '%') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                mvp_fatal(origin_, ":", line_, ": '%' wants an op number");
            tok.kind = Tok::OpRef;
            tok.number = lexNumber();
            return tok;
        }
        if (c == '-' && pos_ + 1 < text_.size() &&
            text_[pos_ + 1] == '>') {
            tok.kind = Tok::Punct;
            tok.text = "->";
            pos_ += 2;
            return tok;
        }
        if (std::string("{}[](),=*+-@").find(c) != std::string::npos) {
            tok.kind = Tok::Punct;
            tok.text = std::string(1, c);
            ++pos_;
            return tok;
        }
        mvp_fatal(origin_, ":", line_, ": unexpected character '", c, "'");
    }

    std::int64_t lexNumber()
    {
        std::size_t end = pos_;
        int base = 10;
        if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
            (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
            base = 16;
            end += 2;
        }
        const std::size_t digits = end;
        while (end < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[end]))))
            ++end;
        const std::string spelling = text_.substr(pos_, end - pos_);
        std::size_t used = 0;
        std::int64_t value = 0;
        try {
            value = std::stoll(text_.substr(digits, end - digits), &used,
                               base);
        } catch (...) {
            mvp_fatal(origin_, ":", line_, ": bad number '", spelling, "'");
        }
        if (used != end - digits)
            mvp_fatal(origin_, ":", line_, ": bad number '", spelling, "'");
        pos_ = end;
        return value;
    }

    const std::string &text_;
    std::string origin_;
    std::size_t pos_ = 0;
    int line_ = 1;
    std::vector<Token> tokens_;   ///< one-token lookahead buffer
};

// ----------------------------------------------------------- parsing

/** Recursive-descent parser over the token stream. */
class Parser
{
  public:
    Parser(const std::string &text, const std::string &origin)
        : lex_(text, origin)
    {
    }

    bool atEnd() { return lex_.peek().kind == Tok::End; }

    bool atIdent(const char *word)
    {
        return lex_.peek().kind == Tok::Ident && lex_.peek().text == word;
    }

    void expectIdent(const char *word)
    {
        if (!atIdent(word))
            lex_.fail(std::string("expected '") + word + "'");
        lex_.next();
    }

    void expectPunct(const char *punct)
    {
        if (lex_.peek().kind != Tok::Punct || lex_.peek().text != punct)
            lex_.fail(std::string("expected '") + punct + "'");
        lex_.next();
    }

    bool acceptPunct(const char *punct)
    {
        if (lex_.peek().kind != Tok::Punct || lex_.peek().text != punct)
            return false;
        lex_.next();
        return true;
    }

    bool acceptIdent(const char *word)
    {
        if (!atIdent(word))
            return false;
        lex_.next();
        return true;
    }

    std::string expectString(const char *what)
    {
        if (lex_.peek().kind != Tok::String)
            lex_.fail(std::string("expected a quoted ") + what);
        return lex_.next().text;
    }

    std::string expectIdentText(const char *what)
    {
        if (lex_.peek().kind != Tok::Ident)
            lex_.fail(std::string("expected ") + what);
        return lex_.next().text;
    }

    std::int64_t expectNumber(const char *what)
    {
        const bool negative = acceptPunct("-");
        if (lex_.peek().kind != Tok::Number)
            lex_.fail(std::string("expected ") + what);
        const std::int64_t value = lex_.next().number;
        return negative ? -value : value;
    }

    [[noreturn]] void fail(const std::string &what) { lex_.fail(what); }

    /**
     * @p v as an int; a parse error naming @p field when it does not
     * fit (a silent cast would wrap 2^32 + 4 to 4).
     */
    int checkedInt(std::int64_t v, const std::string &field)
    {
        if (v < std::numeric_limits<int>::min() ||
            v > std::numeric_limits<int>::max())
            fail(field + " value " + std::to_string(v) +
                 " is out of range");
        return static_cast<int>(v);
    }

    // ------------------------------------------------------ loop files

    LoopFile parseLoopFile()
    {
        LoopFile file;
        while (!atEnd()) {
            if (acceptIdent("suite")) {
                file.suite = expectString("suite name");
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
        ir::LoopNest nest(expectString("loop name"));
        expectPunct("{");

        std::map<std::string, std::size_t> iv_depth;
        std::map<std::string, ArrayId> array_ids;
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
        cfg.name = expectString("machine name");
        expectPunct("{");
        while (!acceptPunct("}")) {
            if (atEnd())
                fail("unterminated machine block");
            const std::string key = expectIdentText("a machine key");
            parseMachineKey(cfg, key);
        }
        cfg.validate();
        return cfg;
    }

  private:
    void parseForDim(ir::LoopNest &nest,
                     std::map<std::string, std::size_t> &iv_depth)
    {
        expectIdent("for");
        ir::LoopDim dim;
        dim.name = expectIdentText("a loop-variable name");
        if (iv_depth.count(dim.name))
            fail("duplicate loop variable '" + dim.name + "'");
        expectPunct("=");
        dim.lower = expectNumber("a lower bound");
        expectIdent("to");
        dim.upper = expectNumber("an (exclusive) upper bound");
        if (acceptIdent("step"))
            dim.step = expectNumber("a step");
        iv_depth.emplace(dim.name, nest.addLoop(dim));
    }

    void parseArrayDecl(ir::LoopNest &nest,
                        std::map<std::string, ArrayId> &array_ids)
    {
        expectIdent("array");
        ir::ArrayDecl decl;
        decl.name = expectIdentText("an array name");
        if (array_ids.count(decl.name))
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
                                   "array '" + decl.name + "' elem");
        expectIdent("base");
        expectPunct("=");
        const std::int64_t base = expectNumber("a base address");
        if (base < 0)
            fail("array '" + decl.name + "' has a negative base address");
        decl.base = static_cast<Addr>(base);
        array_ids.emplace(decl.name, nest.addArray(decl));
    }

    ir::Opcode parseOpcode(const std::string &word)
    {
        using ir::Opcode;
        for (const Opcode op :
             {Opcode::IAdd, Opcode::ISub, Opcode::IMul, Opcode::IDiv,
              Opcode::Copy, Opcode::FAdd, Opcode::FSub, Opcode::FMul,
              Opcode::FDiv, Opcode::FMadd, Opcode::Load, Opcode::Store})
            if (ir::opcodeName(op) == word)
                return op;
        fail("unknown opcode '" + word + "'");
    }

    ir::AffineExpr
    parseAffine(const std::map<std::string, std::size_t> &iv_depth)
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
                            expectIdentText("a loop variable"));
                } else {
                    addChecked(expr.constant, sign * value,
                               std::to_string(sign * value));
                }
            } else if (lex_.peek().kind == Tok::Ident) {
                addTerm(expr, iv_depth, sign, lex_.next().text);
            } else {
                fail("expected an affine term");
            }
        }
        return expr;
    }

    void addTerm(ir::AffineExpr &expr,
                 const std::map<std::string, std::size_t> &iv_depth,
                 std::int64_t coeff, const std::string &var)
    {
        const auto it = iv_depth.find(var);
        if (it == iv_depth.end())
            fail("unknown loop variable '" + var + "'");
        if (expr.coeffs.size() <= it->second)
            expr.coeffs.resize(it->second + 1, 0);
        addChecked(expr.coeffs[it->second], coeff,
                   std::to_string(coeff) + "*" + var);
    }

    /** @p sum += @p term; a parse error naming @p term on overflow. */
    void addChecked(std::int64_t &sum, std::int64_t term,
                    const std::string &spelling)
    {
        if (__builtin_add_overflow(sum, term, &sum))
            fail("affine term " + spelling +
                 " overflows the 64-bit index expression");
    }

    ir::AffineRef
    parseRef(const std::map<std::string, std::size_t> &iv_depth,
             const std::map<std::string, ArrayId> &array_ids)
    {
        const std::string name = expectIdentText("an array name");
        const auto it = array_ids.find(name);
        if (it == array_ids.end())
            fail("reference to undeclared array '" + name + "'");
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

    void parseOp(ir::LoopNest &nest,
                 const std::map<std::string, std::size_t> &iv_depth,
                 const std::map<std::string, ArrayId> &array_ids)
    {
        const std::int64_t id = lex_.next().number;
        if (id != static_cast<std::int64_t>(nest.size()))
            fail("op ids must be dense and in order: expected %" +
                 std::to_string(nest.size()) + ", got %" +
                 std::to_string(id));
        expectPunct("=");
        ir::Operation op;
        op.opcode = parseOpcode(expectIdentText("an opcode"));
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

    void parseMachineKey(MachineConfig &cfg, const std::string &key)
    {
        auto num = [&] { return expectNumber("a value"); };
        auto count = [&] {
            return checkedInt(num(), "machine key '" + key + "'");
        };
        auto flag = [&] {
            if (acceptIdent("true"))
                return true;
            if (acceptIdent("false"))
                return false;
            fail("expected 'true' or 'false' after '" + key + "'");
        };
        if (key == "clusters")
            cfg.nClusters = count();
        else if (key == "int_fus")
            cfg.intFusPerCluster = count();
        else if (key == "fp_fus")
            cfg.fpFusPerCluster = count();
        else if (key == "mem_fus")
            cfg.memFusPerCluster = count();
        else if (key == "regs")
            cfg.regsPerCluster = count();
        else if (key == "reg_buses")
            cfg.nRegBuses = count();
        else if (key == "reg_bus_latency")
            cfg.regBusLatency = num();
        else if (key == "unbounded_reg_buses")
            cfg.unboundedRegBuses = flag();
        else if (key == "mem_buses")
            cfg.nMemBuses = count();
        else if (key == "mem_bus_latency")
            cfg.memBusLatency = num();
        else if (key == "unbounded_mem_buses")
            cfg.unboundedMemBuses = flag();
        else if (key == "cache_bytes")
            cfg.totalCacheBytes = num();
        else if (key == "cache_line")
            cfg.cacheLineBytes = count();
        else if (key == "cache_assoc")
            cfg.cacheAssoc = count();
        else if (key == "mshr")
            cfg.mshrEntries = count();
        else if (key == "lat_cache_hit")
            cfg.latCacheHit = num();
        else if (key == "lat_main_memory")
            cfg.latMainMemory = num();
        else if (key == "lat_int")
            cfg.latInt = num();
        else if (key == "lat_int_mul")
            cfg.latIntMul = num();
        else if (key == "lat_int_div")
            cfg.latIntDiv = num();
        else if (key == "lat_fp")
            cfg.latFp = num();
        else if (key == "lat_fp_div")
            cfg.latFpDiv = num();
        else if (key == "lat_store")
            cfg.latStore = num();
        else
            fail("unknown machine key '" + key + "'");
    }

    Lexer lex_;
};

std::string
readFileOrFatal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        mvp_fatal("cannot read '", path, "'");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
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
    std::ostringstream os;
    os << "loop " << quoted(nest.name()) << " {\n";
    for (const auto &dim : nest.loops()) {
        os << "  for " << dim.name << " = " << dim.lower << " to "
           << dim.upper;
        if (dim.step != 1)
            os << " step " << dim.step;
        os << "\n";
    }
    for (const auto &arr : nest.arrays()) {
        os << "  array " << arr.name;
        for (const auto d : arr.dims)
            os << "[" << d << "]";
        os << " elem=" << arr.elemSize << " base=0x" << std::hex
           << arr.base << std::dec << "\n";
    }
    for (const auto &op : nest.ops()) {
        os << "  %" << op.id << " = " << ir::opcodeName(op.opcode);
        if (!op.name.empty())
            os << " " << quoted(op.name);
        for (const auto &in : op.inputs)
            os << " " << operandToText(in);
        if (op.memRef) {
            if (op.isStore())
                os << " ->";
            os << " " << refToText(*op.memRef, nest);
        }
        os << "\n";
    }
    os << "}\n";
    return os.str();
}

std::string
printLoopFile(const LoopFile &file)
{
    std::string out;
    if (!file.suite.empty())
        out += "suite " + quoted(file.suite) + "\n\n";
    for (std::size_t i = 0; i < file.loops.size(); ++i) {
        if (i)
            out += "\n";
        out += printLoop(file.loops[i]);
    }
    return out;
}

LoopFile
parseLoops(const std::string &text, const std::string &origin)
{
    return Parser(text, origin).parseLoopFile();
}

ir::LoopNest
parseLoop(const std::string &text, const std::string &origin)
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
    std::ostringstream os;
    os << "machine " << quoted(cfg.name) << " {\n";
    os << "  clusters " << cfg.nClusters << "\n";
    os << "  int_fus " << cfg.intFusPerCluster << "\n";
    os << "  fp_fus " << cfg.fpFusPerCluster << "\n";
    os << "  mem_fus " << cfg.memFusPerCluster << "\n";
    os << "  regs " << cfg.regsPerCluster << "\n";
    os << "  reg_buses " << cfg.nRegBuses << "\n";
    os << "  reg_bus_latency " << cfg.regBusLatency << "\n";
    os << "  unbounded_reg_buses "
       << (cfg.unboundedRegBuses ? "true" : "false") << "\n";
    os << "  mem_buses " << cfg.nMemBuses << "\n";
    os << "  mem_bus_latency " << cfg.memBusLatency << "\n";
    os << "  unbounded_mem_buses "
       << (cfg.unboundedMemBuses ? "true" : "false") << "\n";
    os << "  cache_bytes " << cfg.totalCacheBytes << "\n";
    os << "  cache_line " << cfg.cacheLineBytes << "\n";
    os << "  cache_assoc " << cfg.cacheAssoc << "\n";
    os << "  mshr " << cfg.mshrEntries << "\n";
    os << "  lat_cache_hit " << cfg.latCacheHit << "\n";
    os << "  lat_main_memory " << cfg.latMainMemory << "\n";
    os << "  lat_int " << cfg.latInt << "\n";
    os << "  lat_int_mul " << cfg.latIntMul << "\n";
    os << "  lat_int_div " << cfg.latIntDiv << "\n";
    os << "  lat_fp " << cfg.latFp << "\n";
    os << "  lat_fp_div " << cfg.latFpDiv << "\n";
    os << "  lat_store " << cfg.latStore << "\n";
    os << "}\n";
    return os.str();
}

MachineConfig
parseMachine(const std::string &text, const std::string &origin)
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
    return printLoop(scenario.loop) + "\n" + printMachine(scenario.machine);
}

ScenarioText
parseScenario(const std::string &text, const std::string &origin)
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
            (void)parser.expectString("suite name");
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
