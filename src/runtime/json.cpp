#include "runtime/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace ftmul {

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

std::int64_t Json::as_int() const {
    switch (type_) {
        case Type::Int: return int_;
        case Type::Uint:
            if (uint_ > static_cast<std::uint64_t>(INT64_MAX)) {
                throw std::range_error("Json: uint does not fit int64");
            }
            return static_cast<std::int64_t>(uint_);
        default: throw std::logic_error("Json: not an integer");
    }
}

std::uint64_t Json::as_uint() const {
    switch (type_) {
        case Type::Uint: return uint_;
        case Type::Int:
            if (int_ < 0) throw std::range_error("Json: negative as uint");
            return static_cast<std::uint64_t>(int_);
        default: throw std::logic_error("Json: not an integer");
    }
}

double Json::as_double() const {
    switch (type_) {
        case Type::Double: return double_;
        case Type::Int: return static_cast<double>(int_);
        case Type::Uint: return static_cast<double>(uint_);
        default: throw std::logic_error("Json: not a number");
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string Json::quote(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
    out += '"';
    return out;
}

void Json::write(std::string& out, int indent, int depth) const {
    // Built by appends: GCC 12's -Wrestrict misfires on "\n" + string&&.
    std::string pad;
    std::string close_pad;
    if (indent > 0) {
        close_pad = '\n';
        close_pad.append(static_cast<std::size_t>(indent * depth), ' ');
        pad = close_pad;
        pad.append(static_cast<std::size_t>(indent), ' ');
    }
    switch (type_) {
        case Type::Null: out += "null"; break;
        case Type::Bool: out += bool_ ? "true" : "false"; break;
        case Type::Int: out += std::to_string(int_); break;
        case Type::Uint: out += std::to_string(uint_); break;
        case Type::Double: {
            if (!std::isfinite(double_)) {
                out += "null";  // JSON has no inf/nan
                break;
            }
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", double_);
            out += buf;
            break;
        }
        case Type::String: out += quote(string_); break;
        case Type::Array: {
            if (array_.empty()) {
                out += "[]";
                break;
            }
            out += '[';
            bool first = true;
            for (const Json& v : array_) {
                if (!first) out += ',';
                out += pad;
                v.write(out, indent, depth + 1);
                first = false;
            }
            out += close_pad;
            out += ']';
            break;
        }
        case Type::Object: {
            if (object_.empty()) {
                out += "{}";
                break;
            }
            out += '{';
            bool first = true;
            for (const auto& [k, v] : object_) {
                if (!first) out += ',';
                out += pad;
                out += quote(k);
                out += indent > 0 ? ": " : ":";
                v.write(out, indent, depth + 1);
                first = false;
            }
            out += close_pad;
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    write(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    Json parse() {
        Json v = value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw std::runtime_error("Json::parse: " + why + " at offset " +
                                 std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= s_.size()) fail("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_word(const char* w) {
        const std::size_t n = std::char_traits<char>::length(w);
        if (s_.compare(pos_, n, w) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json value() {
        skip_ws();
        switch (peek()) {
            case '{': return object();
            case '[': return array();
            case '"': return Json(string());
            case 't':
                if (consume_word("true")) return Json(true);
                fail("bad literal");
            case 'f':
                if (consume_word("false")) return Json(false);
                fail("bad literal");
            case 'n':
                if (consume_word("null")) return Json(nullptr);
                fail("bad literal");
            default: return number();
        }
    }

    Json object() {
        expect('{');
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            obj.set(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json array() {
        expect('[');
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size()) fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size()) fail("dangling escape");
            char e = s_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > s_.size()) fail("short \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
                        else fail("bad \\u escape");
                    }
                    // Encode as UTF-8 (surrogate pairs not recombined; the
                    // exports only ever escape control characters).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    Json number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        const std::string tok = s_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-") fail("bad number");
        const bool integral =
            tok.find('.') == std::string::npos &&
            tok.find('e') == std::string::npos &&
            tok.find('E') == std::string::npos;
        if (integral) {
            if (tok[0] == '-') {
                std::int64_t v = 0;
                const auto r =
                    std::from_chars(tok.data(), tok.data() + tok.size(), v);
                if (r.ec == std::errc() && r.ptr == tok.data() + tok.size()) {
                    return Json(static_cast<long long>(v));
                }
            } else {
                std::uint64_t v = 0;
                const auto r =
                    std::from_chars(tok.data(), tok.data() + tok.size(), v);
                if (r.ec == std::errc() && r.ptr == tok.data() + tok.size()) {
                    return Json(static_cast<unsigned long long>(v));
                }
            }
            // Overflows 64 bits: fall through to double.
        }
        try {
            return Json(std::stod(tok));
        } catch (...) {
            fail("bad number");
        }
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace ftmul
