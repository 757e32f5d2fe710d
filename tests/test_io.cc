/**
 * @file
 * Tests for the text model format: round trips, comments/blank-line
 * tolerance, and malformed-input rejection with line context.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "graph/generators.h"
#include "ising/io.h"

namespace {

using namespace fq;
using namespace fq::ising;

TEST(ModelIo, RoundTripPreservesEverything)
{
    Rng rng(1);
    auto g = graph::barabasi_albert(12, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    auto model = IsingModel::from_graph(g);
    model.set_linear(3, 0.75);
    model.set_linear(9, -1.25);
    model.set_offset(2.5);

    const auto parsed = parse_model(to_text(model));
    EXPECT_EQ(parsed.num_spins(), model.num_spins());
    EXPECT_EQ(parsed.num_quadratic_terms(), model.num_quadratic_terms());
    EXPECT_DOUBLE_EQ(parsed.offset(), model.offset());
    for (int i = 0; i < model.num_spins(); ++i)
        EXPECT_DOUBLE_EQ(parsed.linear(i), model.linear(i));
    for (const auto& term : model.quadratic_terms())
        EXPECT_DOUBLE_EQ(parsed.quadratic(term.i, term.j),
                         term.coefficient);
}

TEST(ModelIo, EvaluationAgreesAfterRoundTrip)
{
    Rng rng(2);
    auto g = graph::complete(8);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = IsingModel::from_graph(g);
    const auto parsed = parse_model(to_text(model));
    for (std::uint64_t s = 0; s < 256; s += 7)
        EXPECT_DOUBLE_EQ(parsed.evaluate_state(s), model.evaluate_state(s));
}

TEST(ModelIo, CommentsAndBlanksIgnored)
{
    const auto model = parse_model(
        "# a comment\n"
        "\n"
        "ising 3   # trailing comment\n"
        "offset 1.5\n"
        "h 0 -0.5\n"
        "\n"
        "J 0 2 2.0\n");
    EXPECT_EQ(model.num_spins(), 3);
    EXPECT_DOUBLE_EQ(model.offset(), 1.5);
    EXPECT_DOUBLE_EQ(model.linear(0), -0.5);
    EXPECT_DOUBLE_EQ(model.quadratic(0, 2), 2.0);
}

TEST(ModelIo, RejectsMalformedInput)
{
    EXPECT_THROW(parse_model(""), Error);                 // no header
    EXPECT_THROW(parse_model("h 0 1.0\n"), Error);        // term first
    EXPECT_THROW(parse_model("ising 0\n"), Error);        // empty model
    EXPECT_THROW(parse_model("ising 2\nising 2\n"), Error); // dup header
    EXPECT_THROW(parse_model("ising 2\nJ 0 0 1.0\n"), Error); // diagonal
    EXPECT_THROW(parse_model("ising 2\nJ 0 5 1.0\n"), Error); // range
    EXPECT_THROW(parse_model("ising 2\nbogus 1\n"), Error);   // keyword
    EXPECT_THROW(parse_model("ising 2\nh 0\n"), Error);       // truncated
}

TEST(ModelIo, ErrorsCarryLineNumbers)
{
    try {
        parse_model("ising 2\nJ 0 0 1.0\n");
        FAIL() << "should have thrown";
    } catch (const Error& e) {
        // The diagonal-term failure happens inside add_quadratic; the
        // header-level failures carry "at line N" context.
    }
    try {
        parse_model("ising 2\nbogus 1\n");
        FAIL() << "should have thrown";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(ModelIo, RejectsSpinCountAboveTheCapBeforeAllocating)
{
    // 2e9 spins would ask IsingModel for tens of GB; the header check
    // refuses it (and the first count past the cap) with the line named.
    const std::string headers[] = {
        "ising 2000000000\n",
        "# one past the cap\nising " + std::to_string(kMaxSpins + 1) + "\n"};
    for (const auto& header : headers) {
        try {
            parse_model(header);
            FAIL() << "accepted: " << header;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("exceeds"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("at line"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(parse_model("ising 3\n").num_spins(), 3);
}

TEST(ModelIo, CanonicalFormIsStable)
{
    const std::string text = "ising 4\nJ 1 3 -1\nJ 0 2 1\nh 2 0.5\n";
    const auto once = to_text(parse_model(text));
    const auto twice = to_text(parse_model(once));
    EXPECT_EQ(once, twice);
}

} // namespace
