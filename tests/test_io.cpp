// I/O round trips: PGM images, comparison PPM, CSV emission, table printing,
// grid checkpoints.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/csv.hpp"
#include "io/grid_io.hpp"
#include "io/image_io.hpp"
#include "io/table.hpp"
#include "math/rng.hpp"

namespace bismo {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ImageIo, PgmRoundTripPreservesQuantizedValues) {
  Rng rng(5);
  RealGrid img = rng.uniform_grid(17, 23, 0.0, 1.0);
  const std::string path = temp_path("bismo_test_roundtrip.pgm");
  write_pgm(path, img);
  const RealGrid back = read_pgm(path);
  ASSERT_EQ(back.rows(), img.rows());
  ASSERT_EQ(back.cols(), img.cols());
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(back[i], img[i], 1.0 / 255.0 + 1e-9);
  }
  std::remove(path.c_str());
}

TEST(ImageIo, PgmReadsCrlfTerminatedHeaders) {
  // A CRLF-writing producer terminates every header line with "\r\n"; the
  // raster must still start at the right byte.  The first pixel values are
  // chosen to be whitespace bytes ('\n' = 10, '\r' = 13, ' ' = 32) so an
  // off-by-one header parse visibly corrupts the row.
  const std::string path = temp_path("bismo_test_crlf.pgm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\r\n3 2\r\n255\r\n";
    const unsigned char data[6] = {10, 13, 32, 100, 200, 255};
    out.write(reinterpret_cast<const char*>(data), 6);
  }
  const RealGrid img = read_pgm(path);
  ASSERT_EQ(img.rows(), 2u);
  ASSERT_EQ(img.cols(), 3u);
  EXPECT_DOUBLE_EQ(img(0, 0), 10.0 / 255.0);
  EXPECT_DOUBLE_EQ(img(0, 1), 13.0 / 255.0);
  EXPECT_DOUBLE_EQ(img(0, 2), 32.0 / 255.0);
  EXPECT_DOUBLE_EQ(img(1, 0), 100.0 / 255.0);
  EXPECT_DOUBLE_EQ(img(1, 2), 1.0);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmReadsCommentAfterMaxval) {
  const std::string path = temp_path("bismo_test_comment.pgm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n# made by a commenting producer\n2 1 # dims\n255 # maxval\n";
    const unsigned char data[2] = {0, 128};
    out.write(reinterpret_cast<const char*>(data), 2);
  }
  const RealGrid img = read_pgm(path);
  ASSERT_EQ(img.rows(), 1u);
  ASSERT_EQ(img.cols(), 2u);
  EXPECT_DOUBLE_EQ(img(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(img(0, 1), 128.0 / 255.0);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmSingleSpaceHeaderTerminatorStillWorks) {
  // Minimal legal separator: one space, raster immediately after -- the
  // parser must not eat the first pixel even when it is a space byte.
  const std::string path = temp_path("bismo_test_space.pgm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n2 1\n255 ";
    const unsigned char data[2] = {32, 7};
    out.write(reinterpret_cast<const char*>(data), 2);
  }
  const RealGrid img = read_pgm(path);
  EXPECT_DOUBLE_EQ(img(0, 0), 32.0 / 255.0);
  EXPECT_DOUBLE_EQ(img(0, 1), 7.0 / 255.0);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmClampsOutOfRange) {
  RealGrid img(1, 2);
  img[0] = -5.0;
  img[1] = 42.0;
  const std::string path = temp_path("bismo_test_clamp.pgm");
  write_pgm(path, img);
  const RealGrid back = read_pgm(path);
  EXPECT_DOUBLE_EQ(back[0], 0.0);
  EXPECT_DOUBLE_EQ(back[1], 1.0);
  std::remove(path.c_str());
}

TEST(ImageIo, AutoscaleUsesFullRange) {
  RealGrid img(1, 3);
  img[0] = 10.0;
  img[1] = 15.0;
  img[2] = 20.0;
  const std::string path = temp_path("bismo_test_autoscale.pgm");
  write_pgm_autoscale(path, img);
  const RealGrid back = read_pgm(path);
  EXPECT_DOUBLE_EQ(back[0], 0.0);
  EXPECT_DOUBLE_EQ(back[2], 1.0);
  EXPECT_NEAR(back[1], 0.5, 1.0 / 255.0);
  std::remove(path.c_str());
}

TEST(ImageIo, WriteToBadPathThrows) {
  RealGrid img(2, 2);
  EXPECT_THROW(write_pgm("/nonexistent_dir_xyz/file.pgm", img),
               std::runtime_error);
  EXPECT_THROW(read_pgm("/nonexistent_dir_xyz/file.pgm"), std::runtime_error);
}

TEST(ImageIo, ComparePpmRejectsShapeMismatch) {
  RealGrid a(2, 2), b(3, 3);
  EXPECT_THROW(write_compare_ppm(temp_path("x.ppm"), a, b),
               std::invalid_argument);
}

TEST(ImageIo, ComparePpmWritesExpectedHeader) {
  RealGrid z(2, 2, 1.0);
  RealGrid t(2, 2, 1.0);
  const std::string path = temp_path("bismo_test_cmp.ppm");
  write_compare_ppm(path, z, t);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row_strings({"plain", "with,comma", "with\"quote", "with\nnewline"});
  EXPECT_EQ(out.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, NumericRowsRoundTripPrecisely) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.row({1.5, 0.1234567890123456789});
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  const auto comma = line.find(',');
  EXPECT_DOUBLE_EQ(std::stod(line.substr(0, comma)), 1.5);
  EXPECT_DOUBLE_EQ(std::stod(line.substr(comma + 1)), 0.1234567890123456789);
}

TEST(Csv, WriteCsvValidatesShape) {
  EXPECT_THROW(write_csv(temp_path("x.csv"), {"a", "b"}, {{1.0}}),
               std::invalid_argument);
  EXPECT_THROW(write_csv(temp_path("x.csv"), {"a", "b"}, {{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
}

TEST(Csv, WriteCsvProducesFile) {
  const std::string path = temp_path("bismo_test_table.csv");
  write_csv(path, {"step", "loss"}, {{0.0, 1.0, 2.0}, {9.0, 4.0, 1.0}});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "step,loss");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
  std::remove(path.c_str());
}

TEST(Table, AlignsColumnsAndValidates) {
  TablePrinter t({"Bench", "L2", "PVB"});
  t.add_row({"ICCAD13", "13059", "15839"});
  t.add_separator();
  t.add_row({"Average", "26914", "38126"});
  EXPECT_THROW(t.add_row({"too", "few"}), std::invalid_argument);
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("ICCAD13"), std::string::npos);
  EXPECT_NE(s.find("Average"), std::string::npos);
  EXPECT_NE(s.find("+"), std::string::npos);
}

TEST(Table, NumFormatsFixedDigits) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::num(-1.05, 1), "-1.1");
}

TEST(GridIo, RoundTripIsBitExact) {
  Rng rng(9);
  const RealGrid g = rng.uniform_grid(13, 31, -1e6, 1e6);
  const std::string path = temp_path("bismo_test_grid.bsmg");
  save_grid(path, g);
  const RealGrid back = load_grid(path);
  ASSERT_EQ(back.rows(), g.rows());
  ASSERT_EQ(back.cols(), g.cols());
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(back[i], g[i]) << i;  // bitwise
  }
  std::remove(path.c_str());
}

TEST(GridIo, RejectsCorruptInput) {
  const std::string path = temp_path("bismo_test_bad.bsmg");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAGRID";
  }
  EXPECT_THROW(load_grid(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(load_grid("/nonexistent_xyz/grid.bsmg"), std::runtime_error);
  EXPECT_THROW(save_grid("/nonexistent_xyz/grid.bsmg", RealGrid(2, 2)),
               std::runtime_error);
}

TEST(GridIo, TruncatedPayloadThrows) {
  Rng rng(10);
  const RealGrid g = rng.uniform_grid(8, 8, 0.0, 1.0);
  const std::string path = temp_path("bismo_test_trunc.bsmg");
  save_grid(path, g);
  // Chop the file short.
  std::filesystem::resize_file(path, 40);
  EXPECT_THROW(load_grid(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bismo
