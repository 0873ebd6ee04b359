#include "core/cache.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#ifdef __unix__
#include <unistd.h>
#endif

namespace yukta::core {

using control::StateSpace;
using linalg::Matrix;

namespace {

constexpr int kFormatVersion = 4;

void
writeMatrix(std::ostream& os, const Matrix& m)
{
    os << m.rows() << " " << m.cols() << "\n";
    os << std::setprecision(17);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            os << m(r, c) << (c + 1 == m.cols() ? "\n" : " ");
        }
    }
}

/**
 * @return the bytes left to read in @p is (0 when its position is
 * unknown). Every value in a cache file takes at least one byte, so a
 * count larger than this comes from a corrupt file, and sizing a
 * buffer by it would only crash or exhaust memory.
 */
std::size_t
bytesLeft(std::istream& is)
{
    const std::istream::pos_type here = is.tellg();
    if (here < 0) {
        return 0;
    }
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    return end > here ? static_cast<std::size_t>(end - here) : 0;
}

/** Reads a value count, rejecting one the remaining text cannot hold. */
bool
readCount(std::istream& is, std::size_t& n)
{
    return static_cast<bool>(is >> n) && n <= bytesLeft(is);
}

bool
readMatrix(std::istream& is, Matrix& m)
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    // rows * cols is bounded without forming it, so it cannot wrap.
    if (!(is >> rows >> cols) || (cols != 0 && rows > bytesLeft(is) / cols)) {
        return false;
    }
    m = Matrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (!(is >> m(r, c))) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace

std::string
cacheDir()
{
    // Cache *location* may come from the environment (hermetic tests
    // redirect it); cache *contents* are keyed purely on config, so
    // results stay environment-independent.
    // yukta-audit: allow(getenv)
    const char* env = std::getenv("YUKTA_CACHE_DIR");
    std::string dir = env != nullptr ? env : "yukta_cache";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

std::string
cachePath(const std::string& key)
{
    return cacheDir() + "/" + key + ".txt";
}

bool
atomicWriteFile(const std::string& path, const std::string& contents)
{
    static std::atomic<unsigned> counter{0};
#ifdef __unix__
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                            std::to_string(counter.fetch_add(1));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            return false;
        }
        os << contents;
        os.flush();
        if (!os) {
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code ec2;
        std::filesystem::remove(tmp, ec2);
        return false;
    }
    return true;
}

bool
saveStateSpace(const std::string& path, const StateSpace& sys)
{
    std::ostringstream os;
    os << "yukta-ss " << kFormatVersion << "\n" << sys.ts << "\n";
    writeMatrix(os, sys.a);
    writeMatrix(os, sys.b);
    writeMatrix(os, sys.c);
    writeMatrix(os, sys.d);
    return atomicWriteFile(path, os.str());
}

std::optional<StateSpace>
loadStateSpace(const std::string& path)
{
    std::ifstream is(path);
    if (!is) {
        return std::nullopt;
    }
    std::string magic;
    int version = 0;
    double ts = 0.0;
    if (!(is >> magic >> version >> ts) || magic != "yukta-ss" ||
        version != kFormatVersion) {
        return std::nullopt;
    }
    Matrix a;
    Matrix b;
    Matrix c;
    Matrix d;
    if (!readMatrix(is, a) || !readMatrix(is, b) || !readMatrix(is, c) ||
        !readMatrix(is, d)) {
        return std::nullopt;
    }
    try {
        return StateSpace(a, b, c, d, ts);
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

std::string
ssvControllerToText(const robust::SsvController& ctrl)
{
    std::ostringstream os;
    os << "yukta-ssv " << kFormatVersion << "\n";
    os << std::setprecision(17);
    os << ctrl.mu_peak << " " << ctrl.min_s << " " << ctrl.gamma << " "
       << ctrl.dk_iterations << "\n";
    os << ctrl.design_bounds.size();
    for (double b : ctrl.design_bounds) {
        os << " " << b;
    }
    os << "\n" << ctrl.guaranteed_bounds.size();
    for (double b : ctrl.guaranteed_bounds) {
        os << " " << b;
    }
    os << "\n" << ctrl.k.ts << "\n";
    writeMatrix(os, ctrl.k.a);
    writeMatrix(os, ctrl.k.b);
    writeMatrix(os, ctrl.k.c);
    writeMatrix(os, ctrl.k.d);
    return os.str();
}

bool
saveSsvController(const std::string& path,
                  const robust::SsvController& ctrl)
{
    return atomicWriteFile(path, ssvControllerToText(ctrl));
}

std::optional<robust::SsvController>
ssvControllerFromText(const std::string& text)
{
    std::istringstream is(text);
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "yukta-ssv" ||
        version != kFormatVersion) {
        return std::nullopt;
    }
    robust::SsvController ctrl;
    std::size_t ndb = 0;
    std::size_t nb = 0;
    if (!(is >> ctrl.mu_peak >> ctrl.min_s >> ctrl.gamma >>
          ctrl.dk_iterations) ||
        !readCount(is, ndb)) {
        return std::nullopt;
    }
    ctrl.design_bounds.resize(ndb);
    for (double& b : ctrl.design_bounds) {
        if (!(is >> b)) {
            return std::nullopt;
        }
    }
    if (!readCount(is, nb)) {
        return std::nullopt;
    }
    ctrl.guaranteed_bounds.resize(nb);
    for (double& b : ctrl.guaranteed_bounds) {
        if (!(is >> b)) {
            return std::nullopt;
        }
    }
    double ts = 0.0;
    if (!(is >> ts)) {
        return std::nullopt;
    }
    Matrix a;
    Matrix b;
    Matrix c;
    Matrix d;
    if (!readMatrix(is, a) || !readMatrix(is, b) || !readMatrix(is, c) ||
        !readMatrix(is, d)) {
        return std::nullopt;
    }
    try {
        ctrl.k = StateSpace(a, b, c, d, ts);
    } catch (const std::exception&) {
        return std::nullopt;
    }
    return ctrl;
}

std::optional<robust::SsvController>
loadSsvController(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return ssvControllerFromText(buf.str());
}

}  // namespace yukta::core
