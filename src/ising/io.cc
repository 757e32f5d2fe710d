#include "ising/io.h"

#include <sstream>
#include <string>

#include "common/error.h"

namespace fq::ising {

void
write_model(std::ostream& os, const IsingModel& model)
{
    os << "ising " << model.num_spins() << "\n";
    if (model.offset() != 0.0)
        os << "offset " << model.offset() << "\n";
    for (int i = 0; i < model.num_spins(); ++i)
        if (model.linear(i) != 0.0)
            os << "h " << i << " " << model.linear(i) << "\n";
    for (const auto& term : model.quadratic_terms())
        os << "J " << term.i << " " << term.j << " " << term.coefficient
           << "\n";
}

std::string
to_text(const IsingModel& model)
{
    std::ostringstream os;
    write_model(os, model);
    return os.str();
}

IsingModel
read_model(std::istream& is)
{
    IsingModel model;
    bool have_header = false;
    std::string line;
    int line_number = 0;
    while (std::getline(is, line)) {
        ++line_number;
        // Strip comments.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream tokens(line);
        std::string keyword;
        if (!(tokens >> keyword))
            continue; // blank line

        const auto context = " at line " + std::to_string(line_number);
        if (keyword == "ising") {
            FQ_REQUIRE(!have_header, "duplicate header" + context);
            int n = -1;
            FQ_REQUIRE(static_cast<bool>(tokens >> n) && n >= 1,
                       "malformed header" + context);
            FQ_REQUIRE(n <= kMaxSpins,
                       "spin count " + std::to_string(n) + " exceeds " +
                           std::to_string(kMaxSpins) + context);
            model = IsingModel(n);
            have_header = true;
        } else if (keyword == "offset") {
            FQ_REQUIRE(have_header, "offset before header" + context);
            double v;
            FQ_REQUIRE(static_cast<bool>(tokens >> v),
                       "malformed offset" + context);
            model.set_offset(v);
        } else if (keyword == "h") {
            FQ_REQUIRE(have_header, "h before header" + context);
            int i;
            double v;
            FQ_REQUIRE(static_cast<bool>(tokens >> i >> v),
                       "malformed linear term" + context);
            model.add_linear(i, v);
        } else if (keyword == "J") {
            FQ_REQUIRE(have_header, "J before header" + context);
            int i, j;
            double v;
            FQ_REQUIRE(static_cast<bool>(tokens >> i >> j >> v),
                       "malformed quadratic term" + context);
            model.add_quadratic(i, j, v);
        } else {
            FQ_REQUIRE(false, "unknown keyword '" + keyword + "'" + context);
        }
    }
    FQ_REQUIRE(have_header, "missing 'ising <n>' header");
    return model;
}

IsingModel
parse_model(const std::string& text)
{
    std::istringstream is(text);
    return read_model(is);
}

} // namespace fq::ising
