"""The stock airframe's flight values, each written once.

A leaf module: it holds literals and imports nothing, so any layer (the
power study included) reads them without loading another.
"""

RHO = 1.225  # sea-level air density, kg/m^3
GRAVITY = 9.81  # m/s^2
MASS = 1.2  # take-off mass, kg
CRUISE_SPEED = 15.6  # fixed-wing cruise airspeed, m/s
CRUISE_THRUST = 4.4  # total rotor thrust in fixed-wing cruise, N
FULL_THROTTLE = 2000.0  # throttle counts at full throttle, both rotors
