#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/table.hh"

namespace pth
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            out += strfmt("\\u%04x", u);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
jsonDouble(double value)
{
    // JSON has no non-finite numbers; quote them so the journal line
    // stays parseable (readers strtod the string back).
    if (std::isnan(value))
        return "\"nan\"";
    if (std::isinf(value))
        return value > 0 ? "\"inf\"" : "\"-inf\"";
    return strfmt("%.17g", value);
}

bool
JsonValue::asBool(bool fallback) const
{
    return kind_ == Kind::Bool ? boolean_ : fallback;
}

double
JsonValue::asDouble(double fallback) const
{
    if (kind_ != Kind::Number)
        return fallback;
    return std::strtod(scalar_.c_str(), nullptr);
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &member : members_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

/** Recursive-descent parser over the writer's dialect. */
class JsonParser
{
  public:
    JsonParser(const std::string &text) : s(text) {}

    bool
    parseDocument(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        return pos == s.size();
    }

  private:
    void
    skipSpace()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = 0;
        while (word[n])
            ++n;
        if (s.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos >= s.size())
            return false;
        // Containers recurse; bound the depth so a hostile or mangled
        // document ("[[[[...") is rejected instead of overflowing the
        // stack. The writer's dialect nests three levels deep.
        switch (s[pos]) {
        case '{':
        case '[': {
            if (++depth > kMaxDepth)
                return false;
            const bool ok = s[pos] == '{' ? parseObject(out)
                                          : parseArray(out);
            --depth;
            return ok;
        }
        case '"':
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.scalar_);
        case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.boolean_ = true;
            return literal("true");
        case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            out.boolean_ = false;
            return literal("false");
        case 'n':
            out.kind_ = JsonValue::Kind::Null;
            return literal("null");
        default: return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind_ = JsonValue::Kind::Object;
        ++pos; // '{'
        skipSpace();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipSpace();
            std::string key;
            if (pos >= s.size() || s[pos] != '"' || !parseString(key))
                return false;
            skipSpace();
            if (pos >= s.size() || s[pos] != ':')
                return false;
            ++pos;
            skipSpace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.members_.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos >= s.size())
                return false;
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind_ = JsonValue::Kind::Array;
        ++pos; // '['
        skipSpace();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            skipSpace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.items_.push_back(std::move(value));
            skipSpace();
            if (pos >= s.size())
                return false;
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos; // opening quote
        out.clear();
        while (pos < s.size()) {
            char c = s[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= s.size())
                return false;
            char esc = s[pos++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos + 4 > s.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // The writer only emits \u for control characters;
                // encode anything else as UTF-8 for robustness.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
            }
            default: return false;
            }
        }
        return false;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (pos == start)
            return false;
        // Validate by reparsing the token with strtod.
        std::string token = s.substr(start, pos - start);
        char *end = nullptr;
        std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return false;
        out.kind_ = JsonValue::Kind::Number;
        out.scalar_ = std::move(token);
        return true;
    }

    /** Far above anything the repo writes, far below stack limits. */
    static constexpr std::size_t kMaxDepth = 64;

    const std::string &s;
    std::size_t pos = 0;
    std::size_t depth = 0;
};

bool
JsonValue::parse(const std::string &text, JsonValue &out)
{
    JsonValue value;
    JsonParser parser(text);
    if (!parser.parseDocument(value))
        return false;
    out = std::move(value);
    return true;
}

} // namespace pth
