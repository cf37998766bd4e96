/**
 * @file
 * IEEE 754 binary16 emulation.
 *
 * The Dysta hardware scheduler computes scores and sparsity
 * coefficients in half precision (Sec. 5.2.2) to cut FPGA resources.
 * This type reproduces the numerical behaviour: every arithmetic
 * operation is performed in binary32 and rounded back to binary16
 * (round-to-nearest-even), matching a half-precision FPU built from
 * single-precision primitives.
 */

#ifndef DYSTA_UTIL_FP16_HH
#define DYSTA_UTIL_FP16_HH

#include <cstdint>
#include <cstring>

namespace dysta {

/** Convert binary32 to binary16 bits, round-to-nearest-even. */
uint16_t floatToHalfBits(float f);

/** Convert binary16 bits to binary32. */
float halfBitsToFloat(uint16_t h);

/**
 * Round a binary32 value to binary16 (round-to-nearest-even) and
 * widen it back: bit for bit halfBitsToFloat(floatToHalfBits(f)).
 *
 * For |f| in [2^-14, 65520) and for +-0 the result is a binary16
 * normal or zero, and the rounding is one integer add and mask on the
 * binary32 bits: adding 0xFFF plus the lowest kept mantissa bit
 * carries into bit 13 exactly when the 13 dropped bits round up (ties
 * to even), and a carry out of the mantissa steps the exponent as
 * binary16 does. Subnormals, overflow, inf and NaN take the
 * conversion round-trip.
 */
inline float
roundToHalf(float f)
{
    uint32_t x;
    std::memcpy(&x, &f, sizeof(x));
    uint32_t mag = x & 0x7FFFFFFFu;
    constexpr uint32_t kMinNormal = 0x38800000u;  // 2^-14
    constexpr uint32_t kRoundsToInf = 0x477FF000u; // 65520
    if (mag - kMinNormal < kRoundsToInf - kMinNormal || mag == 0) {
        x = (x + 0xFFFu + ((x >> 13) & 1u)) & 0xFFFFE000u;
        std::memcpy(&f, &x, sizeof(f));
        return f;
    }
    return halfBitsToFloat(floatToHalfBits(f));
}

/**
 * Storage type with value semantics behaving like a hardware FP16
 * register: assignments round, arithmetic rounds after every op.
 */
class Fp16
{
  public:
    Fp16() = default;
    Fp16(float f) : bits(floatToHalfBits(f)) {}
    Fp16(double d) : Fp16(static_cast<float>(d)) {}

    /** Raw bit pattern as stored in the hardware register. */
    uint16_t raw() const { return bits; }

    /** Construct from a raw bit pattern. */
    static Fp16
    fromBits(uint16_t b)
    {
        Fp16 h;
        h.bits = b;
        return h;
    }

    float toFloat() const { return halfBitsToFloat(bits); }
    operator float() const { return toFloat(); }

    Fp16 operator+(Fp16 o) const { return Fp16(toFloat() + o.toFloat()); }
    Fp16 operator-(Fp16 o) const { return Fp16(toFloat() - o.toFloat()); }
    Fp16 operator*(Fp16 o) const { return Fp16(toFloat() * o.toFloat()); }
    Fp16 operator/(Fp16 o) const { return Fp16(toFloat() / o.toFloat()); }

    bool operator==(Fp16 o) const { return toFloat() == o.toFloat(); }
    bool operator<(Fp16 o) const { return toFloat() < o.toFloat(); }
    bool operator>(Fp16 o) const { return toFloat() > o.toFloat(); }

  private:
    uint16_t bits = 0;
};

} // namespace dysta

#endif // DYSTA_UTIL_FP16_HH
